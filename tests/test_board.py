import copy
import pickle
import re

import pytest

from puzzlecalc import filling
from puzzlecalc.board import (OFF_BOARD, STEP, FillPos, PuzzlePath, Step, ascii_render,
                              check_path, final_path, final_path_word, initial_path, is_valid,
                              next_fill_position, path_from_key, steps_key, svg_render,
                              validate_path)
from puzzlecalc.filling import ascii_puzzles, enumerate_puzzles, reachable_from
from puzzlecalc.words import all_words, parse_word


def _pairs(n):
    for k in range(n + 1):
        for mu in all_words(n, k):
            for nu in all_words(n, k):
                yield mu, nu


def test_initial_path_shape():
    mu = parse_word("0101")
    nu = parse_word("1010")
    p = initial_path(mu, nu)
    assert p.n == 4
    dirs = [s.dir for s in p.steps]
    assert dirs == ["SE"] * 4 + ["W"] * 4
    # NE side carries mu top to bottom; bottom carries nu right to left
    assert [s.label for s in p.steps[:4]] == ["0", "1", "0", "1"]
    assert [s.label for s in p.steps[4:]] == ["0", "1", "0", "1"]


def test_initial_path_validity_matches_membership():
    # the initial path is usable iff the opposite cell meets the Schubert cell
    ok, bad = 0, 0
    for n in range(1, 5):
        for mu, nu in _pairs(n):
            p = initial_path(mu, nu)
            if is_valid(p):
                ok += 1
            else:
                bad += 1
    assert ok > 0 and bad > 0


def test_validate_rejects_unbalanced_leading_run():
    p = initial_path(parse_word("100"), parse_word("010"))
    msgs = validate_path(p)
    assert any("SE steps" in m for m in msgs)


def test_final_path_word_reads_bottom_up():
    p = PuzzlePath(3, (Step("SW", "0"), Step("SW", "1"), Step("SW", "0")))
    assert str(final_path_word(p)) == "010"
    # an SE step anywhere, not only last, means the path is not final
    for steps in [(Step("SE", "0"), Step("SW", "1"), Step("W", "0")),
                  (Step("SW", "0"), Step("SE", "1"), Step("W", "0"))]:
        with pytest.raises(ValueError, match="still has SE steps"):
            final_path_word(PuzzlePath(2, steps))
    # final_path is its inverse, and builds a path with no fill site
    assert final_path(parse_word("010")) == p
    for n in range(7):
        for k in range(n + 1):
            for lam in all_words(n, k):
                assert final_path_word(final_path(lam)) == lam
                assert check_path(final_path(lam))[1] is None


def test_final_path_has_no_fill_position():
    p = PuzzlePath(2, (Step("SW", "1"), Step("SW", "0")))
    assert next_fill_position(p).kind == "done"


def test_next_fill_position_initial():
    p = initial_path(parse_word("0101"), parse_word("1010"))
    pos = next_fill_position(p)
    assert pos.kind == "bottom" and pos.c == 4


def test_ascii_render_has_row_per_depth():
    pz = enumerate_puzzles(parse_word("01"), parse_word("10"))[0]
    text = ascii_render(pz)
    assert len(text.splitlines()) == 2 * pz.n


def test_svg_render_is_well_formed():
    pz = enumerate_puzzles(parse_word("0101"), parse_word("1010"))[0]
    svg = svg_render(ascii_render(pz))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<text") >= 3 * pz.n  # one label per edge


def test_path_rejects_bad_step_sequence():
    # SE after W never occurs on a staircase path
    p = PuzzlePath(2, (Step("W", "0"), Step("SE", "1")))
    assert not is_valid(p)


def test_step_rejects_bad_direction_or_label():
    with pytest.raises(ValueError, match="direction"):
        Step("NE", "0")
    with pytest.raises(ValueError, match="label"):
        Step("SE", "2")
    with pytest.raises(ValueError, match="label"):
        STEP["SW", "1"]._replace(label="x")


def test_interned_step_equals_a_fresh_one():
    # Step, _make, _replace, copy and deepcopy return the one step in STEP;
    # unpickling returns an equal one; equality, order and hash are a tuple's
    assert len(STEP) == 12
    for (d, label), s in STEP.items():
        assert Step(d, label) is s and Step._make([d, label]) is s
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(s, protocol)) == s
        for other in ("0", "1", "R", "K"):
            assert s._replace(label=other) is STEP[d, other]
        assert hash(s) == hash((d, label))
        assert (s.dir, s.label) == s == (d, label) < s + ("~",)
    fresh_path = initial_path(parse_word("01"), parse_word("10")).steps
    assert fresh_path == (Step("SE", "0"), Step("SE", "1"), Step("W", "0"), Step("W", "1"))
    assert hash(fresh_path) == hash(tuple(Step(s.dir, s.label) for s in fresh_path))
    assert all(a is b for a, b in zip(copy.deepcopy(fresh_path), fresh_path))


def test_keys_round_trip_on_reachable_states():
    # a key decodes to the steps in STEP, and the steps encode to the key
    states = 0
    for n in range(1, 6):
        for mu, nu in _pairs(n):
            for key, (p, _) in reachable_from([(mu, nu)]).items():
                steps = p.steps
                assert all(s is STEP[s] for s in steps)
                assert steps_key(steps) == p.key == key and len(steps) == len(key)
                assert PuzzlePath(p.n, steps) == p == path_from_key(p.n, key)
                assert hash(PuzzlePath(p.n, steps)) == hash(p)
                states += 1
    assert states == 5709


def test_step_repr_is_unchanged():
    # the dictionary suite's messages embed a path's steps
    assert repr(Step("SE", "0")) == "Step(dir='SE', label='0')"
    assert repr(STEP["W", "1"]) == "Step(dir='W', label='1')"


def _last_se(p: PuzzlePath) -> int | None:
    """Index of the last SE step (the kink), None once the path is final."""
    se = [idx for idx, s in enumerate(p.steps) if s.dir == "SE"]
    return se[-1] if se else None


def _vertices(p: PuzzlePath) -> list[tuple[int, int]]:
    """Start vertex of each step, plus the final vertex."""
    out = [(0, 0)]
    a, b = 0, 0
    for s in p.steps:
        if s.dir == "SE":
            a, b = a + 1, b + 1
        elif s.dir == "SW":
            a, b = a + 1, b
        else:
            if a != p.n or b < 1:
                raise ValueError("west step off the bottom row")
            b -= 1
        out.append((a, b))
    if (a, b) != (p.n, 0):
        raise ValueError(f"path ends at v({a},{b}), not v({p.n},0)")
    return out


def _position_by_vertices(p: PuzzlePath) -> FillPos:
    """next_fill_position the slow way, from the whole vertex list."""
    kink = _last_se(p)
    if kink is None:
        return FillPos("done")
    a, b = _vertices(p)[kink + 1]
    if p.steps[kink + 1].dir == "W":
        return FillPos("bottom", c=b)
    return FillPos("rhombus", i=b, j=b + p.n - a)


def test_fill_position_matches_the_vertex_list_on_reachable_states():
    seen = set()
    for n in range(1, 6):
        for mu, nu in _pairs(n):
            for steps, (path, _) in reachable_from([(mu, nu)]).items():
                if steps in seen:
                    continue
                seen.add(steps)
                want = _position_by_vertices(path)
                assert next_fill_position(path) == want
                site = check_path(path)[1]
                assert (site is None) == (want.kind == "done")
                if site is not None:
                    assert site == (_last_se(path), want)
    assert len(seen) == 1915


def test_fill_position_rejects_a_west_step_off_the_bottom_row():
    # before the kink, and after it on a path that still ends at v(n, 0)
    for steps in [(Step("W", "0"), Step("SE", "1")),
                  (Step("W", "0"), Step("SE", "1"), Step("SW", "0")),
                  (Step("SE", "0"), Step("W", "0"), Step("SE", "1"), Step("W", "1")),
                  (Step("SE", "0"), Step("W", "0"), Step("SW", "0"))]:
        with pytest.raises(ValueError, match="west step off the bottom row"):
            next_fill_position(PuzzlePath(2, steps))
        assert check_path(PuzzlePath(2, steps)) == (
            ["geometry: west step off the bottom row"], OFF_BOARD)


def test_fill_position_matches_the_vertex_list_on_every_short_path():
    # a path that leaves the board raises, also one with no SE step, which
    # has no kink but is not final either
    with pytest.raises(ValueError, match="geometry: west step off the bottom row"):
        next_fill_position(PuzzlePath(1, (Step("W", "0"), Step("SW", "0"))))
    # every direction sequence of up to 2n steps with n <= 3: a path the
    # vertex list keeps on the board gets its position, any other raises
    paths = 0
    for n in range(1, 4):
        seqs = [()]
        for _ in range(2 * n):
            seqs = [seq + (d,) for seq in seqs for d in ("SE", "SW", "W")]
            for seq in seqs:
                path = PuzzlePath(n, [Step(d, "0") for d in seq])
                try:
                    _vertices(path)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(f"geometry: {exc}")):
                        next_fill_position(path)
                    assert check_path(path)[1] is OFF_BOARD
                else:
                    assert next_fill_position(path) == _position_by_vertices(path)
                paths += 1
    assert paths == 12 + 120 + 1092


# -- rendering against the dict-based renderers it replaced ----------------

def _reference_edge_labels(pz):
    """Every edge label keyed by ("H"|"SE"|"SW", a, b), (a, b) the upper vertex."""
    n = pz.n
    edges = {}
    for d in range(1, n + 1):
        edges[("SE", d - 1, d - 1)] = str(pz.mu[d])
    for a in range(n):
        edges[("SW", a, 0)] = str(pz.lam[n - a])
    for c in range(1, n + 1):
        edges[("H", n, c)] = str(pz.nu[c])
    for (i, j), r in dict(pz.rhombi).items():
        a = i + n - j
        edges[("SW", a - 1, i - 1)] = r.left[0]
        edges[("SE", a, i - 1)] = r.left[1]
        edges[("SE", a - 1, i - 1)] = r.right[0]
        edges[("SW", a, i)] = r.right[1]
        if r.mid is not None:
            edges[("H", a, i)] = r.mid
    for c, t in dict(pz.bottoms).items():
        edges[("SW", n - 1, c - 1)] = t.left
        edges[("SE", n - 1, c - 1)] = t.diag
    return edges


def _reference_ascii(pz):
    n = pz.n
    edges = _reference_edge_labels(pz)
    lines = []
    for a in range(1, n + 1):
        indent = "  " * (n - a)
        zig = []
        for b in range(a):
            zig.append("/" + edges[("SW", a - 1, b)])
            zig.append("\\" + edges[("SE", a - 1, b)])
        lines.append(indent + " ".join(zig))
        horiz = []
        for b in range(1, a + 1):
            lab = edges.get(("H", a, b))
            horiz.append("--" if lab is None else f"-{lab}")
        lines.append(indent + "  " + "    ".join(horiz))
    return "\n".join(lines)


def _reference_svg(pz):
    n = pz.n
    s = 60.0
    h = s * 3 ** 0.5 / 2

    def xy(a, b):
        return (n - a) * s / 2 + b * s + 10, a * h + 10

    fills = {"equivariant": "#fbb", "topk": "#bbf"}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{n * s + 20:.0f}" '
             f'height="{n * h + 20:.0f}" font-size="12" text-anchor="middle">']
    for (i, j), r in sorted(dict(pz.rhombi).items()):
        fill = fills.get(r.kind)
        if fill:
            a = i + n - j
            pts = [xy(a - 1, i - 1), xy(a, i), xy(a + 1, i), xy(a, i - 1)]
            poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            parts.append(f'<polygon points="{poly}" fill="{fill}" stroke="none"/>')
    for (kind, a, b), lab in sorted(_reference_edge_labels(pz).items()):
        if kind == "H":
            p1, p2 = xy(a, b - 1), xy(a, b)
        elif kind == "SE":
            p1, p2 = xy(a, b), xy(a + 1, b + 1)
        else:
            p1, p2 = xy(a, b), xy(a + 1, b)
        parts.append(f'<line x1="{p1[0]:.1f}" y1="{p1[1]:.1f}" '
                     f'x2="{p2[0]:.1f}" y2="{p2[1]:.1f}" stroke="#444"/>')
        mx, my = (p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2
        parts.append(f'<text x="{mx:.1f}" y="{my - 2:.1f}">{lab}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# pairs beyond the golden corpus (n <= 5), n = 7 being the benchmark's size;
# six of them have topk pieces.  Between them they place every piece with no
# mid edge, which svg_render tells apart by its left labels: 4,127
# equivariant (01), 230 topk (1K) and the forced K pieces, 230 R0 and 10 0K
RENDER_PAIRS = [
    ("101010", "111000"), ("010011", "010101"), ("000111", "100011"),
    ("100011", "110010"), ("010101", "010101"), ("110001", "110100"),
    ("001101", "100110"),
    ("0010110", "0110100"), ("0101001", "0101010"), ("1001010", "1100010"),
    ("0000111", "0010101"), ("0101110", "1111000"), ("0010111", "1110010"),
    ("0100111", "1110001"),
    ("00101011", "01111000"), ("01010011", "01111000"), ("00100111", "10100101"),
    ("10100101", "11000110"), ("00001111", "11000011"),
]


def test_renderers_match_the_dict_based_reference_beyond_the_golden_range():
    no_mid = set()
    for mu, nu in RENDER_PAIRS:
        pzs = enumerate_puzzles(parse_word(mu), parse_word(nu))
        assert pzs
        for pz in pzs:
            no_mid.update((r.kind, r.left) for _, r in pz.rhombi if r.mid is None)
            text = ascii_render(pz)
            assert text == _reference_ascii(pz)
            assert svg_render(text) == _reference_svg(pz)
    assert no_mid == {("equivariant", ("0", "1")), ("topk", ("1", "K")),
                      ("boring", ("0", "K")), ("boring", ("R", "0"))}


def test_the_run_walk_writes_each_rendered_board_and_the_fold_counts_them():
    # every pair with n <= 5 and the pairs above, unfiltered and for each lam
    pairs = [pair for n in range(1, 6) for pair in _pairs(n)]
    pairs += [(parse_word(mu), parse_word(nu)) for mu, nu in RENDER_PAIRS]
    for mu, nu in pairs:
        counts, stream = ascii_puzzles(mu, nu)
        rendered = [(pz.lam, ascii_render(pz)) for pz in enumerate_puzzles(mu, nu)]
        boards = [text for _, text in rendered]
        assert list(stream) == boards, (mu, nu)
        assert sum(counts.values()) == len(boards)
        for lam in all_words(mu.n, mu.k):
            boards = [text for word, text in rendered if word == lam]
            assert list(ascii_puzzles(mu, nu, lam)[1]) == boards, (mu, nu, lam)
            assert counts.get(str(lam), 0) == len(boards)


@pytest.mark.parametrize("lam, message", [
    ("01", "lambda's length differs from the words'"),
    ("0111", "lambda has a different number of 1s from the words"),
])
def test_ascii_puzzles_refuses_a_lambda_of_another_board(monkeypatch, lam, message):
    # refused before the graph is built, where it would yield no board
    def unbuilt(pairs, prune=frozenset()):
        raise AssertionError("graph built")

    monkeypatch.setattr(filling, "graph", unbuilt)
    with pytest.raises(ValueError, match=message):
        ascii_puzzles(parse_word("0101"), parse_word("1010"), parse_word(lam))
