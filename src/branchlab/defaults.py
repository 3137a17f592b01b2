"""Defaults the analysis layers share with the command line.

Each layer imports its own names from here and they stay readable there
(``charax.DEFAULT_SLICE_LEN``, ``helper.PATTERN_TABLE`` ...). The CLI
builds its parser from this module alone, so a command loads only the
layers it runs.
"""

# charax: instructions per H2P screening slice
DEFAULT_SLICE_LEN = 30_000_000

# depgraph: trailing dependency window, in instructions, and the mask on
# a register value snapshot
DEFAULT_WINDOW = 5000
DEFAULT_VALUE_MASK = 0xFFFFFFFF

# helper: the model kinds, the override threshold and perceptron epochs
PATTERN_TABLE = "pattern-table"
PERCEPTRON = "perceptron"
DEFAULT_TAU = 0.7
DEFAULT_EPOCHS = 20

# pipeline: the analytic machine's width, misprediction penalty and the
# width scales of a sweep
DEFAULT_WIDTH = 4
DEFAULT_PENALTY = 20
DEFAULT_SCALES = (1, 2, 4, 8, 16, 32)
