"""The tracer sees every call, whichever name the caller reached it by."""
import contextlib
import io

from puzzlecalc import board, cli, filling, poly
from puzzlecalc.words import parse_word

from tracing import Tracer

MU = parse_word("0101")
NU = parse_word("1010")


def _nodes(node) -> int:
    return 1 + sum(_nodes(c) for c in node.children)


def test_legal_branches_count_matches_trace_nodes():
    nodes = _nodes(filling.trace(MU, NU))
    tracer = Tracer()
    with tracer:
        filling.enumerate_puzzles(MU, NU)
    assert tracer.calls["filling.legal_branches"] == nodes


def test_names_imported_directly_are_traced():
    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["coeff", "--theory", "ht", "--mu", "0101", "--nu", "1010", "--json"]) == 0
    # cli binds structure_constants and count_puzzles by name
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["filling.structure_constants"] == 1
    assert tracer.calls["filling.enumerate_puzzles"] == 1
    assert tracer.calls["poly.mul"] > 0
    assert tracer.self_ns["cli.main"] > 0

    tracer = Tracer()
    with tracer:
        filling.trace(MU, NU)
    # pinkdots binds validate_path by name and calls it once per node
    assert tracer.calls["pinkdots.path_to_rank"] == _nodes(filling.trace(MU, NU))
    assert tracer.calls["board.validate_path"] >= tracer.calls["pinkdots.path_to_rank"]


def test_uninstall_restores_every_binding():
    before = (cli.structure_constants, board.validate_path, poly._Sparse.__mul__)
    with Tracer():
        assert cli.structure_constants is not before[0]
        assert poly._Sparse.__rmul__ is poly._Sparse.__mul__
    assert (cli.structure_constants, board.validate_path, poly._Sparse.__mul__) == before
    assert cli.structure_constants is filling.structure_constants
    assert poly._Sparse.__rmul__ is poly._Sparse.__mul__
