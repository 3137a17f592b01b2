"""branchlab: a trace-driven branch prediction workbench.

Generate synthetic instruction traces with planted branch behaviors,
simulate classic predictors (bimodal, gshare, perceptron, loop, TAGE,
TAGE-SC-L) with storage accounting, screen for hard-to-predict branches,
slice dataflow to find dependency branches, convert mispredictions into
analytic IPC opportunity, and train offline per-branch helper models.

``load_branch_trace`` returns a trace file's branch records and its
instruction count, from any of the four formats; ``load_instr_trace``
returns the instruction records of an IT1 file.
"""

from .charax import (
    H2PCriteria,
    H2PReport,
    HeavyHitterReport,
    IpStats,
    RareBinReport,
    RecurrenceReport,
    SliceStats,
    accumulate_slice_stats,
    accuracy_excluding,
    cross_input_h2p,
    decade_bin,
    h2p_report,
    heavy_hitters,
    per_ip_totals,
    rare_bins,
    recurrence_intervals,
    screen_h2p,
)
from .depgraph import (
    SOURCE,
    DefUseWindow,
    DependencyDistribution,
    RegValueHistogram,
    find_dependency_branches,
    regval_snapshots,
)
from .errors import (
    ArgumentError,
    BranchLabError,
    ConfigError,
    CorruptModel,
    CorruptTrace,
    EmptyTargetError,
    FormatError,
    TrainingError,
)
from .helper import (
    HelperModel,
    HelperTelemetry,
    TrainingCorpus,
    apply_helpers,
    evaluate_generalization,
    load_model,
    load_models_file,
    save_model,
    save_models_file,
    train_helper,
)
from .pipeline import (
    IpcResult,
    OpportunityCurve,
    PipelineModelConfig,
    PredictionOracle,
    StorageSweepResult,
    effective_mispredictions,
    ipc,
    scaling_sweep,
    storage_sweep,
)
from .predictors import (
    AlwaysTaken,
    Bimodal,
    EnsembleConfig,
    Gshare,
    LoopPredictor,
    MispredictionStream,
    Perceptron,
    PRESET_NAMES,
    StatisticalCorrector,
    Tage,
    TageConfig,
    TageSCL,
    ensemble_config,
    estimate_storage,
    make_predictor,
    simulate,
)
from .records import BranchKind, BranchRecord, InstructionRecord, TraceMeta
from .synth import (
    Biased,
    DataDependent,
    HistoryCorrelated,
    LoopExit,
    Periodic,
    PlantedManifest,
    RarePool,
    SyntheticProgramSpec,
    generate_trace,
    program_spec_from_json,
    program_spec_to_json,
)
from .traceio import (
    load_branch_trace,
    load_instr_trace,
    project_branches,
    read_branch_trace,
    read_instr_trace,
    save_trace,
    write_branch_trace,
    write_instr_trace,
)

__version__ = "0.1.0"
