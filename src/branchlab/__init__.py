"""branchlab: a trace-driven branch prediction workbench.

Generate synthetic instruction traces with planted branch behaviors,
simulate classic predictors (bimodal, gshare, perceptron, loop, TAGE,
TAGE-SC-L) with storage accounting, screen for hard-to-predict branches,
slice dataflow to find dependency branches, convert mispredictions into
analytic IPC opportunity, and train offline per-branch helper models.

The package itself imports nothing, so a command pays only for the layers
it runs. Library code imports the submodules: ``branchlab.traceio``
(``load_branch_trace``, ``load_instr_trace``), ``branchlab.synth``,
``branchlab.predictors`` (``make_predictor``, ``simulate``),
``branchlab.charax``, ``branchlab.depgraph``, ``branchlab.pipeline``,
``branchlab.helper``, ``branchlab.reports``, ``branchlab.records``,
``branchlab.defaults`` and ``branchlab.errors``.
"""

__version__ = "0.1.0"
