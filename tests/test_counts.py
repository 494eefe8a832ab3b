import pytest

from flagcw.counts import (
    FLAGS_COMPLEX,
    FLAGS_REAL_DIAGNOSTIC,
    FLAGS_REAL_PRIMARY,
    QUINTIC_FOURPLANES,
    count_preset,
    gw_form,
)


def test_cubic_lines():
    res = count_preset("cubic-lines")
    assert res["complex"] == 27
    assert res["real"] == 3
    assert res["gw_form"] == {"ones": 15, "minus_ones": 12}


def test_quintic_fourplanes():
    assert count_preset("quintic-4planes") == {"complex": QUINTIC_FOURPLANES}


def test_flag_count():
    res = count_preset("flag-3-5")
    assert res["complex"] == FLAGS_COMPLEX == 27 * QUINTIC_FOURPLANES
    assert res["complex_routes"] == {"a": FLAGS_COMPLEX, "b": FLAGS_COMPLEX}
    assert res["pushforward_constant"] == 27
    assert res["real_primary"] == FLAGS_REAL_PRIMARY
    assert res["real_diagnostic"] == FLAGS_REAL_DIAGNOSTIC


def test_gw_form():
    assert gw_form(27, -3) == {"ones": 12, "minus_ones": 15}
    assert gw_form(4, 4) == {"ones": 4, "minus_ones": 0}
    with pytest.raises(ValueError, match="parity"):
        gw_form(27, 2)
    with pytest.raises(ValueError, match="exceed"):
        gw_form(3, 5)
    with pytest.raises(ValueError, match="exceed"):
        gw_form(3, -5)

