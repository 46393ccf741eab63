"""Local causal structure learning around a target variable.

Learn the Markov blanket of a target in discrete data, orient the
target's edges through spouse evidence and propagation rules, and
expand outward only as far as orientation demands. Includes a
d-separation oracle backend, a BIF network parser, forward sampling,
and benchmark scoring.
"""

from .bif import BifParseError, load_bif, parse_bif
from .bnet import (CptNetwork, CycleError, Dag, d_separated, sample,
                   topo_order, true_mb)
from .citest import CiEngine, CiResult, chi2_sf, g2_statistic
from .data import (ContingencyTable, Dataset, DatasetError, contingency,
                   load_csv, save_csv)
from .localgraph import (ElcsOutcome, LocalGraph, UNDIRECTED,
                         apply_orientations, elcs, meek_closure)
from .mbdiscovery import (MbResult, distinguish_pc, emb, iamb,
                          recog_spouses)
from .metrics import LocalScore, aggregate, score_local
from .pcdiscovery import (Sepsets, conditioning_sets, find_separator,
                          recog_pc)

__all__ = [
    "BifParseError", "CiEngine", "CiResult", "ContingencyTable",
    "CptNetwork", "CycleError", "Dag", "Dataset", "DatasetError",
    "ElcsOutcome", "LocalGraph", "LocalScore", "MbResult", "Sepsets",
    "UNDIRECTED", "aggregate", "apply_orientations", "chi2_sf",
    "contingency", "conditioning_sets", "d_separated", "distinguish_pc",
    "elcs", "emb", "find_separator", "g2_statistic", "iamb", "load_bif",
    "load_csv", "meek_closure", "parse_bif", "recog_pc",
    "recog_spouses", "sample", "save_csv", "score_local", "topo_order",
    "true_mb",
]

__version__ = "0.1.0"
