"""
One test per acceptance criterion; each prints a single PASS/FAIL line.
Run with -s (or read captured output) to see the ledger.
"""
import time

from puzzlecalc.filling import Theory, structure_constants
from puzzlecalc.oracle import verify_suite
from puzzlecalc.poly import LPoly, Poly, eval_at_one, lowest_form
from puzzlecalc.words import inversions, parse_word


MU = parse_word("0101")
NU = parse_word("1010")


def _verdict(num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _suite_ok(max_n, *suites):
    rep = verify_suite(max_n, suites)
    detail = "; ".join(d for _, ok, d in rep.results if not ok)
    return rep.ok, detail


def test_criterion_1_worked_example():
    t0 = time.time()
    h = structure_constants(Theory.H, MU, NU)
    ht = structure_constants(Theory.HT, MU, NU)
    k = structure_constants(Theory.K, MU, NU)
    elapsed = time.time() - t0
    one = Poly.const(4, 1)
    ok = (h == {"0110": one, "1001": one}
          and ht == {"0110": one, "1001": one,
                     "1010": Poly.y(4, 4) - Poly.y(4, 1)}
          and k == {"0110": LPoly.const(4, 1), "1001": LPoly.const(4, 1),
                    "0101": LPoly.const(4, -1)}
          and elapsed < 1.0)
    _verdict(1, "H/H_T/K worked example, exact, under 1s", ok,
             f"elapsed={elapsed:.2f}s h={h} ht={ht} k={k}")


def test_criterion_2_kt_desk_check():
    kt = structure_constants(Theory.KT, MU, NU)
    k = structure_constants(Theory.K, MU, NU)
    ht = structure_constants(Theory.HT, MU, NU)
    probs = []
    for lam in set(kt) | set(k):
        a = eval_at_one(kt.get(lam, LPoly.zero(4)))
        b = eval_at_one(k.get(lam, LPoly.zero(4)))
        if a != b:
            probs.append(f"eval_at_one {lam}")
    for lam in set(kt) | set(ht):
        w = parse_word(lam)
        d = inversions(w) + inversions(MU) - inversions(NU)
        htc = ht.get(lam, Poly.zero(4))
        if d >= 0:
            if lowest_form(kt.get(lam, LPoly.zero(4)), d) != htc:
                probs.append(f"lowest_form {lam}")
        elif not htc.is_zero():
            probs.append(f"below-degree {lam}")
    if kt.get("0101") != LPoly.exp(4, (1, 0, 0, -1), -1):
        probs.append("0101 coefficient")
    _verdict(2, "K_T specializes to K and H_T; 0101 term is -e^(y1-y4)",
             not probs, "; ".join(probs))


def test_criterion_3_lr_oracle_agreement():
    t0 = time.time()
    ok, detail = _suite_ok(6, "lr")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _verdict(3, "H counts equal LR oracle, n<=6, every k, under 60s", ok,
             detail or f"elapsed={elapsed:.1f}s")


def test_criterion_4_inversion_lemma():
    ok, detail = _suite_ok(6, "inversion")
    _verdict(4, "inversion balance on every puzzle, n<=6", ok, detail)


def test_criterion_5_specialization_chain():
    ok, detail = _suite_ok(5, "specialize")
    _verdict(5, "K_T->K, K_T->H_T, H_T->H chains, n<=5", ok, detail)


def test_criterion_6_commutativity():
    ok, detail = _suite_ok(5, "commute")
    _verdict(6, "H/H_T/K constants symmetric in the first two words, n<=5",
             ok, detail)


def test_criterion_7_geometry_dictionary():
    ok, detail = _suite_ok(5, "dictionary")
    _verdict(7, "codim, cover pattern and rank minima along every trace, n<=5",
             ok, detail)


def test_criterion_8_hall_and_essential():
    ok, detail = _suite_ok(6, "hall", "essential")
    _verdict(8, "Hall equivalence exhaustive n<=6; essential bounds derived "
             "to imply every window bound for every matrix, n<=6", ok, detail)


def test_criterion_9_initial_final_identifications():
    ok, detail = _suite_ok(5, "boundary")
    _verdict(9, "initial paths give the codim-0 envelope; final paths give "
             "first-row conditions only, n<=5", ok, detail)
