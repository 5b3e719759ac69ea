"""Statistics used by the evaluation tables.

Table III reports 95 % confidence intervals around the geometric mean of
the quiet-local measurements and checks that every noisy-environment
sample falls inside them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: ``t.ppf(0.975, df)`` of Student's t for df = 1..100, exact to the last
#: bit of the reference quantile function (generated once from scipy).
_T975_TABLE = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)

#: The standard normal 0.975 quantile, the df -> infinity limit.
_Z975 = 1.959963984540054

# Cornish-Fisher coefficients g1..g4 of Abramowitz & Stegun 26.7.5 at
# x = _Z975: t = x + g1/df + g2/df**2 + g3/df**3 + g4/df**4.
_G1 = (_Z975**3 + _Z975) / 4
_G2 = (5 * _Z975**5 + 16 * _Z975**3 + 3 * _Z975) / 96
_G3 = (3 * _Z975**7 + 19 * _Z975**5 + 17 * _Z975**3 - 15 * _Z975) / 384
_G4 = (
    79 * _Z975**9 + 776 * _Z975**7 + 1482 * _Z975**5 - 1920 * _Z975**3 - 945 * _Z975
) / 92160


def _t975(df: int) -> float:
    """Two-sided 95 % critical value of Student's t with ``df`` degrees
    of freedom.

    Exact (table) for df <= 100; above that the four-term Cornish-Fisher
    expansion, whose relative error there is below 4e-11.
    """
    if df <= len(_T975_TABLE):
        return _T975_TABLE[df - 1]
    u = 1.0 / df
    return _Z975 + u * (_G1 + u * (_G2 + u * (_G3 + u * _G4)))


def geometric_mean(values: np.ndarray) -> float:
    """Geometric mean (values must be positive)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot average zero samples")
    if np.any(values <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(values).mean()))


def confidence_interval_95(values: np.ndarray) -> tuple[float, float]:
    """Return ``(mean, h)`` such that the 95 % CI is ``mean ± h``.

    Uses the t-distribution (the sample counts in Table III are ~50).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    h = sem * _t975(values.size - 1)
    return mean, h


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    mean: float
    std: float
    median: float
    minimum: float
    maximum: float
    count: int


def summarize(values: np.ndarray) -> Summary:
    """Compute a :class:`Summary`."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarize zero samples")
    return Summary(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        median=float(np.median(values)),
        minimum=float(values.min()),
        maximum=float(values.max()),
        count=int(values.size),
    )
