import numpy as np

from liebau.numerics import cyclic_differences


def test_cyclic_differences_match_inline_roll_formula():
    rng = np.random.default_rng(11)
    for n in (3, 8, 257):
        x = rng.uniform(-2.0, 5.0, n)
        h, a = 1.0 / n, 1.6
        xp, xm = np.roll(x, -1), np.roll(x, 1)
        d1, d2 = cyclic_differences(x)
        assert np.array_equal(d1, xp - xm)
        assert np.array_equal(d2, xp - 2.0 * x + xm)
        assert np.array_equal(
            d2 / h**2 + a * d1 / (2.0 * h),
            (xp - 2.0 * x + xm) / h**2 + a * (xp - xm) / (2.0 * h),
        )
