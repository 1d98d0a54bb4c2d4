import pytest

from puzzlecalc.board import (STEP, FillPos, PuzzlePath, Step, ascii_render,
                              fill_site, final_path_word, initial_path, is_valid,
                              next_fill_position, read_boundary, svg_render,
                              validate_path)
from puzzlecalc.filling import enumerate_puzzles, reachable
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


def test_final_path_has_no_fill_position():
    p = PuzzlePath(2, (Step("SW", "1"), Step("SW", "0")))
    assert next_fill_position(p).kind == "done"


def test_next_fill_position_initial():
    p = initial_path(parse_word("0101"), parse_word("1010"))
    pos = next_fill_position(p)
    assert pos.kind == "bottom" and pos.c == 4


def test_kink_index_is_last_se():
    p = initial_path(parse_word("01"), parse_word("10"))
    assert p.kink_index() == 1


def test_read_boundary_round_trip():
    mu = parse_word("0101")
    nu = parse_word("1010")
    for pz in enumerate_puzzles(mu, nu):
        lam, m2, n2 = read_boundary(pz)
        assert (str(m2), str(n2)) == ("0101", "1010")
        assert lam == pz.lam


def test_ascii_render_has_row_per_depth():
    pz = enumerate_puzzles(parse_word("01"), parse_word("10"))[0]
    text = ascii_render(pz)
    assert len(text.splitlines()) == 2 * pz.n


def test_svg_render_is_well_formed():
    pz = enumerate_puzzles(parse_word("0101"), parse_word("1010"))[0]
    svg = svg_render(pz)
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
    assert len(STEP) == 12
    for (d, label), s in STEP.items():
        fresh = Step(d, label)
        assert s == fresh and hash(s) == hash(fresh)
        assert (s.dir, s.label) == (d, label)
    fresh_path = initial_path(parse_word("01"), parse_word("10")).steps
    assert fresh_path == (Step("SE", "0"), Step("SE", "1"), Step("W", "0"), Step("W", "1"))
    assert hash(fresh_path) == hash(tuple(Step(s.dir, s.label) for s in fresh_path))


def test_step_repr_is_unchanged():
    # the dictionary suite's messages embed a path's steps
    assert repr(Step("SE", "0")) == "Step(dir='SE', label='0')"
    assert repr(STEP["W", "1"]) == "Step(dir='W', label='1')"


def _position_by_vertices(p: PuzzlePath) -> FillPos:
    """next_fill_position the slow way, from the whole vertex list."""
    kink = p.kink_index()
    if kink is None:
        return FillPos("done")
    a, b = p.vertices()[kink + 1]
    if p.steps[kink + 1].dir == "W":
        return FillPos("bottom", c=b)
    return FillPos("rhombus", i=b, j=b + p.n - a)


def test_fill_position_matches_the_vertex_list_on_reachable_states():
    seen = set()
    for n in range(1, 6):
        for mu, nu in _pairs(n):
            for steps, (path, _) in reachable(mu, nu).items():
                if steps in seen:
                    continue
                seen.add(steps)
                want = _position_by_vertices(path)
                assert next_fill_position(path) == want
                site = fill_site(path)
                assert (site is None) == (want.kind == "done")
                if site is not None:
                    assert site == (path.kink_index(), want)
    assert len(seen) == 1915


def test_fill_position_rejects_a_west_step_off_the_bottom_row():
    # before the kink, and after it on a path that still ends at v(n, 0)
    for steps in [(Step("W", "0"), Step("SE", "1")),
                  (Step("W", "0"), Step("SE", "1"), Step("SW", "0")),
                  (Step("SE", "0"), Step("W", "0"), Step("SE", "1"), Step("W", "1")),
                  (Step("SE", "0"), Step("W", "0"), Step("SW", "0"))]:
        with pytest.raises(ValueError, match="west step off the bottom row"):
            next_fill_position(PuzzlePath(2, steps))
        with pytest.raises(ValueError, match="west step off the bottom row"):
            fill_site(PuzzlePath(2, steps))
