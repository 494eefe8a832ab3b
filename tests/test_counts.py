import pytest

from flagcw.counts import (
    FLAGS_COMPLEX,
    FLAGS_REAL_DIAGNOSTIC,
    FLAGS_REAL_PRIMARY,
    QUINTIC_FOURPLANES,
    count_preset,
    euler_root_image,
    flag_euler_class,
    flag_survivors,
    gw_form,
)
from flagcw.flagchow import FlagShape
from flagcw.poly import GradedPolynomial
from flagcw.wdring import build_sigma


def test_cubic_lines():
    res, _ = count_preset("cubic-lines")
    assert res["complex"] == 27
    assert res["real"] == 3
    assert res["gw_form"] == {"ones": 15, "minus_ones": 12}


def test_quintic_fourplanes():
    res, _ = count_preset("quintic-4planes")
    assert res == {"complex": QUINTIC_FOURPLANES}


def test_flag_count():
    res, _ = count_preset("flag-3-5")
    assert res["complex"] == FLAGS_COMPLEX == 27 * QUINTIC_FOURPLANES
    assert res["complex_routes"] == {"a": FLAGS_COMPLEX, "b": FLAGS_COMPLEX}
    assert res["pushforward_constant"] == 27
    assert res["real_primary"] == FLAGS_REAL_PRIMARY
    assert res["real_diagnostic"] == FLAGS_REAL_DIAGNOSTIC


def test_real_flag_count_by_two_readings():
    # int_W e(E) reads all nine monomials of e(E); seven integrate to 0
    # and the survivors a^16 b^14, a^14 b^16 to +1, -1
    e = flag_euler_class()
    c_plus, c_minus = flag_survivors(e)
    assert (c_plus, c_minus) == (68824410075, -44142772500)
    assert c_plus + c_minus == FLAGS_REAL_PRIMARY
    assert c_plus - c_minus == FLAGS_REAL_DIAGNOSTIC
    pres = build_sigma(FlagShape([2, 2, 14]))
    readings = {
        e.ring.exponents(mon): pres.integrate(
            euler_root_image(pres, GradedPolynomial(e.ring, {mon: 1})))
        for mon in e.terms
    }
    assert len(readings) == 9
    assert {m: r for m, r in readings.items() if r} == {(16, 14): 1, (14, 16): -1}


def test_euler_root_image_is_the_substitution():
    pres = build_sigma(FlagShape([2, 2, 2]))
    a, b = flag_euler_class().ring.gens()
    e1, e2 = pres.euler(1), pres.euler(2)
    p = 3 * a ** 3 * b - b ** 2 + 2
    assert euler_root_image(pres, p) == 3 * e1 ** 3 * e2 - e2 * e2 + 2 * pres.one()


def test_gw_form():
    assert gw_form(27, -3) == {"ones": 12, "minus_ones": 15}
    assert gw_form(4, 4) == {"ones": 4, "minus_ones": 0}
    with pytest.raises(ValueError, match="parity"):
        gw_form(27, 2)
    with pytest.raises(ValueError, match="exceed"):
        gw_form(3, 5)
    with pytest.raises(ValueError, match="exceed"):
        gw_form(3, -5)

