"""Published reference tables of Li coefficients for four conductors.

Each entry maps n to the pair (lambda_tilde_arith, lambda_zero_sum): the
published arithmetic-formula column (unstated cutoff M, known to drift well
beyond any bound at larger n; order-of-magnitude reference only) and the
zero-sum column computed from the first 10^4 ordinates (the comparison
target).

Character identities behind the published columns, established numerically
by matching zero-sum values against each primitive character's computed
spectrum (the source tables label the columns only by modulus):

* mod 3:  the quadratic character (the only non-principal choice), 3.1.
* mod 5:  an order-4 complex character with chi(2) = i, here 5.1.  The
  quadratic character mod 5 has lambda(1) = 0.078278, irreconcilable with
  the published 0.08562 since the truncated sum only underestimates; the
  one-sided spectrum of 5.1 under the factor-2 convention reproduces the
  column to ~5e-4 at height 2000 and within the tail at 10^4 zeros.
* mod 20: the quadratic character 20.6 (0.31860 at height 2000 vs 0.319128).
* mod 60: the quadratic character 60.14 (0.48571 at height 2000 vs 0.48626).
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import DirichletCharacter, character_by_label


@dataclass(frozen=True)
class TableSpec:
    name: str
    modulus: int
    label: int
    # True when the published column is believed to use the character's
    # one-sided spectrum with the factor-2 convention despite the character
    # being complex (mod 5); real characters are genuinely symmetric.
    complex_convention: bool
    assumption: str
    rows: dict[int, tuple[float, float]]

    def character(self) -> DirichletCharacter:
        return character_by_label(self.modulus, self.label)

    def zero_sum_column(self) -> dict[int, float]:
        return {n: zs for n, (_, zs) in self.rows.items()}


_MOD3_ROWS = {
    1: (0.05316, 0.056442), 2: (0.22763, 0.22542), 3: (0.14844, 0.50592),
    4: (0.89344, 0.89624), 5: (1.35725, 1.39404), 6: (2.12951, 1.99635),
    7: (2.98573, 2.69962), 8: (3.91334, 3.49978), 9: (4.40970, 4.39225),
    10: (5.94841, 5.37202), 11: (7.04344, 6.43371), 12: (8.18382, 7.57163),
    13: (9.36580, 8.77987), 14: (10.58620, 10.05230), 15: (11.84230, 11.38280),
    16: (12.81150, 12.76510), 17: (14.45250, 14.19300), 18: (15.80260, 15.66050),
    19: (17.18050, 17.16170), 20: (18.58480, 18.69100), 21: (20.01400, 20.24310),
    22: (21.46700, 21.81300), 23: (22.94280, 23.39600), 24: (24.44030, 24.98820),
    25: (25.95870, 26.58590), 26: (27.49700, 28.18600), 27: (29.05460, 29.78580),
    28: (30.63070, 31.38330), 29: (32.22460, 32.97700), 30: (33.83580, 34.56580),
    31: (35.46370, 36.14940), 32: (37.10770, 37.72780), 33: (38.76730, 39.3014),
    34: (40.44210, 40.87120), 35: (42.13150, 42.43870), 36: (43.83530, 44.00550),
}

_MOD5_ROWS = {
    1: (0.13183, 0.08562), 2: (0.29872, 0.34152), 3: (0.91468, 0.76482),
    4: (1.58476, 1.35081), 5: (2.63432, 2.09300), 6: (3.66199, 2.98332),
    7: (4.77362, 4.01225), 8: (5.95664, 5.16902), 9: (7.06010, 6.44188),
    10: (8.50254, 7.81828), 11: (9.85298, 9.28519), 12: (11.24880, 10.82930),
    13: (12.68620, 12.43740), 14: (14.16200, 14.09650), 15: (15.67350, 15.79410),
    16: (17.68370, 17.51860), 17: (14.45250, 19.25930), 18: (20.40000, 21.00670),
    19: (22.03340, 22.75260), 20: (23.69300, 24.49030), 21: (25.37770, 26.21450),
    22: (27.08610, 27.92160), 23: (28.81730, 29.60960), 24: (30.57020, 31.27780),
    25: (32.34400, 32.92720), 26: (34.13770, 34.56020), 27: (35.95070, 36.18030),
    28: (37.78220, 37.79200), 29: (39.63160, 39.40090), 30: (41.49820, 41.01320),
    31: (43.38150, 42.63540), 32: (45.28090, 44.2746), 33: (47.19590, 45.93760),
    34: (49.12610, 47.63100), 35: (51.07100, 49.36130), 36: (53.03020, 51.13410),
    37: (55.00320, 52.95430), 38: (56.98980, 54.82600), 39: (58.98950, 56.75210),
    40: (61.00210, 58.73450),
}

_MOD20_ROWS = {
    1: (0.695021, 0.319128), 2: (1.68502, 1.24419), 3: (2.99412, 2.68343),
    4: (4.48123, 4.50032), 5: (6.10005, 6.53527), 6: (7.82087, 8.63067),
    7: (9.62565, 10.65500), 8: (11.50180, 12.52230), 9: (13.32220, 14.20280),
    10: (15.43400, 15.72450), 11: (17.47760, 17.16450), 12: (19.56650, 18.63130),
    13: (21.69710, 20.24300), 14: (23.86610, 22.10320), 15: (26.07070, 24.28030),
    16: (28.54690, 26.79300), 17: (30.57800, 29.60520), 18: (32.87670, 32.63050),
    19: (35.20320, 35.74610), 20: (37.55600, 38.81360), 21: (39.93370, 41.70260),
    22: (42.33530, 44.31350), 23: (44.75970, 46.59570), 24: (47.20580, 48.55720),
    25: (49.67270, 50.26430), 26: (52.15960, 51.83150), 27: (54.66570, 53.403100),
    28: (57.19040, 55.12930), 29: (59.73290, 57.14130), 30: (62.29260, 59.52940),
    31: (64.86910, 62.32740), 32: (67.46160, 65.50710), 33: (70.06980, 68.98220),
    34: (72.69310, 72.62260), 35: (75.33110, 76.27560), 36: (77.98350, 79.79060),
    37: (80.64970, 83.04340), 38: (83.32940, 85.95580), 39: (86.02230, 88.50750),
    40: (88.72800, 90.73760),
}

_MOD60_ROWS = {
    1: (1.12226, 0.48626), 2: (2.78363, 1.86950), 3: (4.64204, 3.94169),
    4: (6.83662, 6.41363), 5: (8.84658, 8.98530), 6: (11.11670, 11.41720),
    7: (13.47080, 13.58380), 8: (15.89630, 15.49640), 9: (18.06830, 17.28820),
    10: (20.92710, 19.16770), 11: (23.52000, 21.35250), 12: (26.15820, 24.00100),
    13: (28.83810, 27.16160), 14: (31.55630, 30.75170), 15: (34.31030, 34.57380),
    16: (37.56690, 38.36300), 17: (39.91620, 41.85530), 18: (42.76420, 44.85610),
    19: (45.64000, 47.29300), 20: (48.54210, 49.23760), 21: (51.46920, 50.88960),
    22: (54.42010, 52.52830), 23: (57.39370, 54.44350), 24: (60.38910, 56.86290),
    25: (63.40530, 59.89590), 26: (66.44150, 63.50750), 27: (69.49700, 67.53000),
    28: (72.57090, 71.70750), 29: (75.6628, 75.7637), 30: (78.77180, 79.47310),
    31: (81.89750, 82.71770), 32: (85.03940, 85.51520), 33: (88.19690, 88.00960),
    34: (91.36950, 90.42920), 35: (94.55690, 93.02160), 36: (97.75850, 95.98430),
    37: (100.97400, 99.40850), 38: (104.20300, 103.25300), 39: (107.44500, 107.35200),
    40: (110.70000, 111.46000),
}

TABLES = {
    "mod3": TableSpec(
        name="mod3", modulus=3, label=1, complex_convention=False,
        assumption="the unique non-principal character mod 3 (quadratic, odd)",
        rows=_MOD3_ROWS),
    "mod5": TableSpec(
        name="mod5", modulus=5, label=1, complex_convention=True,
        assumption=("order-4 complex character with chi(2)=i; the quadratic "
                    "character mod 5 (lambda(1)=0.078278) cannot produce the "
                    "published 0.08562, so the column is read as the factor-2 "
                    "sum over this character's upper-half-plane zeros"),
        rows=_MOD5_ROWS),
    "mod20": TableSpec(
        name="mod20", modulus=20, label=6, complex_convention=False,
        assumption="quadratic character of conductor 20 (Kronecker -20, odd)",
        rows=_MOD20_ROWS),
    "mod60": TableSpec(
        name="mod60", modulus=60, label=14, complex_convention=False,
        assumption="quadratic character of conductor 60 (Kronecker 60, even)",
        rows=_MOD60_ROWS),
}
