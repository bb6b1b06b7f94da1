"""Rooted graph-rewriting interpreter with a binary-search-tree graph
program, a reference-tree differential harness, and benchmarks."""

from .errors import (
    DivergenceError, GraphError, MalformedTreeError, ParseError,
    ValidationError,
)
from .hostgraph import HostGraph
from .interp import DEFAULT_MAX_ITERS, Program, Status, run, validate_program
from .labels import LabelPattern
from .rules import (
    Match, MatchStats, Rule, apply_rule, find_match, validate_rule,
)
from .text import (
    Op, build_instruction_graph, format_opscript, parse_host, parse_opscript,
    parse_program, parse_rule, print_host,
)
from .oracle import OracleTree, gen_workload, o_apply
from .bst import (
    BstRunResult, extract_tree, format_tree, program, run_bst, validate_output,
)
from .bench import (
    BenchRow, gen_balanced, gen_degenerate, measure, scaling_report,
)

__version__ = "0.1.0"
