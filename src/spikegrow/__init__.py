"""spikegrow: grow spiking classifiers neuron-by-neuron from spike trains."""

from .construct import (
    Candidate,
    GrowOutcome,
    PruningConfig,
    SelectionResult,
    candidate_features,
    grow_one,
    sample_candidates,
    select_best,
    xi_index,
)
from .dataset import (
    GeneratorConfig,
    LabeledDataset,
    LabeledSample,
    NestedFamily,
    SplitConfig,
    encode_targets,
    generate_family,
    load_dataset,
    save_dataset,
    split_train_test,
)
from .errors import (
    ChecksumError,
    ConfigError,
    DataFormatError,
    DegenerateDataError,
    InvariantError,
    LineageError,
    ShapeError,
    SpikegrowError,
)
from .evaluation import (
    ComparisonReport,
    EvalReport,
    compare_runs,
    evaluate,
    export_trace,
    load_trace,
    space_complexity,
)
from .learner import (
    GrowthConfig,
    HiddenNeuron,
    Network,
    TraceRecord,
    TrainingTrace,
    load_network,
    one_loop_adapt,
    save_network,
    train_experienced,
    train_fresh,
)
from .lif import (
    LifParams,
    NeuronState,
    SpikeTrain,
    lif_step,
    rate_feature,
    simulate_neuron,
)
from .readout import ResidualState, fit_output_weights, predict, residual

__version__ = "0.1.0"
