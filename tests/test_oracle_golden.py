"""Golden oracle reports: every field of ``verify(s, solve(s))`` pinned by repr.

The values were captured before the oracle's grid and probe moved to array
passes, which must leave every report bit-identical.  A change that moves a
gap, a slack or a violation count by one ULP fails here.  The seeded cases
draw two feasible scenarios per strategy x PA pair; the low-load TPA cases
pin nonzero convexity-violation counts, which the seeded draws do not reach.
Every closed-form anchor of these grids meets its demands, so each report
has ``anchor_misses`` 0.
"""

from dataclasses import fields

import pytest

from fdrelay import PaKind, ScenarioParams, Strategy, solve, verify
from fdrelay.oracle import OracleReport, random_feasible_scenarios

SEEDED = {
    ("fd1ts", "tpa"): (
        {
            "grid_best_energy": "0.5804165218259185",
            "solver_energy": "0.5804165218259185",
            "relative_gap": "0.0",
            "active_constraints": (
                ("c_ar", "0.0"),
                ("c_br", "0.0"),
                ("c_ra", "0.011047884018271392"),
                ("c_rb", "0.0"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
        {
            "grid_best_energy": "2.2058469816162147",
            "solver_energy": "2.2058469816162147",
            "relative_gap": "0.0",
            "active_constraints": (
                ("c_ar", "1.398261654552275e-16"),
                ("c_br", "0.0"),
                ("c_ra", "0.0"),
                ("c_rb", "1.9899335268528981"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
    ),
    ("fd1ts", "etpa"): (
        {
            "grid_best_energy": "0.32330973519999184",
            "solver_energy": "0.32330973519999184",
            "relative_gap": "0.0",
            "active_constraints": (
                ("c_ar", "0.0"),
                ("c_br", "0.0"),
                ("c_ra", "0.011047884018271392"),
                ("c_rb", "0.0"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
        {
            "grid_best_energy": "1.9229047658998983",
            "solver_energy": "1.9229047658998983",
            "relative_gap": "0.0",
            "active_constraints": (
                ("c_ar", "1.398261654552275e-16"),
                ("c_br", "0.0"),
                ("c_ra", "0.0"),
                ("c_rb", "1.9899335268528981"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
    ),
    ("fd2ts", "tpa"): (
        {
            "grid_best_energy": "1.2050087062661965",
            "solver_energy": "1.2043769488488003",
            "relative_gap": "-0.0005242762264794983",
            "active_constraints": (
                ("c_ar", "0.0"),
                ("c_rb", "0.0"),
                ("c_br", "-1.6076061904505748e-16"),
                ("c_ra", "-1.6076061904505748e-16"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
        {
            "grid_best_energy": "0.2318973564405785",
            "solver_energy": "0.23187773385060406",
            "relative_gap": "-8.461756647689705e-05",
            "active_constraints": (
                ("c_ar", "-1.200959964201489e-16"),
                ("c_rb", "-1.200959964201489e-16"),
                ("c_br", "0.0"),
                ("c_ra", "-1.530578906209333e-16"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
    ),
    ("fd2ts", "etpa"): (
        {
            "grid_best_energy": "0.8810150227993621",
            "solver_energy": "0.8789975333844441",
            "relative_gap": "-0.002289960287518758",
            "active_constraints": (
                ("c_ar", "0.0"),
                ("c_rb", "0.0"),
                ("c_br", "1.6076061904505748e-16"),
                ("c_ra", "1.6076061904505748e-16"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
        {
            "grid_best_energy": "0.1300705484650968",
            "solver_energy": "0.12993303982951784",
            "relative_gap": "-0.0010571850215259",
            "active_constraints": (
                ("c_ar", "-1.200959964201489e-16"),
                ("c_rb", "-1.200959964201489e-16"),
                ("c_br", "0.0"),
                ("c_ra", "0.0"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
    ),
    ("hd2ts", "tpa"): (
        {
            "grid_best_energy": "0.19182991726804718",
            "solver_energy": "0.19180339540395708",
            "relative_gap": "-0.00013825718359168735",
            "active_constraints": (
                ("c_ar", "-1.200959964201489e-16"),
                ("c_br", "0.0"),
                ("c_ra", "1.530578906209333e-16"),
                ("c_rb", "0.15017442454467345"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
        {
            "grid_best_energy": "0.15354016031096157",
            "solver_energy": "0.1534841569451265",
            "relative_gap": "-0.0003647473450702471",
            "active_constraints": (
                ("c_ar", "0.0"),
                ("c_br", "0.0"),
                ("c_ra", "1.8685891235523083e-16"),
                ("c_rb", "4.672468686344637"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
    ),
    ("hd2ts", "etpa"): (
        {
            "grid_best_energy": "0.10841457202536539",
            "solver_energy": "0.10835573005815424",
            "relative_gap": "-0.0005427496148523408",
            "active_constraints": (
                ("c_ar", "1.200959964201489e-16"),
                ("c_br", "0.0"),
                ("c_ra", "0.0"),
                ("c_rb", "0.17248037302042554"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
        {
            "grid_best_energy": "0.0836615214521573",
            "solver_energy": "0.08347478978924452",
            "relative_gap": "-0.002231989804531109",
            "active_constraints": (
                ("c_ar", "1.8959918124868284e-16"),
                ("c_br", "0.0"),
                ("c_ra", "0.0"),
                ("c_rb", "4.0084735786245975"),
            ),
            "convexity_violations": "0",
            "anchor_misses": "0",
        },
    ),
}
LOW_LOAD_TPA = {
    "fd1ts":
    {
        "grid_best_energy": "0.005884944599044261",
        "solver_energy": "0.005715686722001238",
        "relative_gap": "-0.02876116744930978",
        "active_constraints": (
            ("c_ar", "-1.164153218269348e-16"),
            ("c_br", "-1.164153218269348e-16"),
            ("c_ra", "-1.164153218269348e-16"),
            ("c_rb", "-1.164153218269348e-16"),
        ),
        "convexity_violations": "43",
        "anchor_misses": "0",
    },
    "fd2ts":
    {
        "grid_best_energy": "0.007286735508692032",
        "solver_energy": "0.0072080374522514685",
        "relative_gap": "-0.010800180183113269",
        "active_constraints": (
            ("c_ar", "-1.164153218269348e-16"),
            ("c_rb", "-1.164153218269348e-16"),
            ("c_br", "-1.164153218269348e-16"),
            ("c_ra", "-1.164153218269348e-16"),
        ),
        "convexity_violations": "37",
        "anchor_misses": "0",
    },
    "hd2ts":
    {
        "grid_best_energy": "0.005859298735924318",
        "solver_energy": "0.005691632319572692",
        "relative_gap": "-0.02861544084168899",
        "active_constraints": (
            ("c_ar", "0.0"),
            ("c_br", "0.0"),
            ("c_ra", "1.164153218269348e-16"),
            ("c_rb", "1.164153218269348e-16"),
        ),
        "convexity_violations": "0",
        "anchor_misses": "0",
    },
}


def _reprs(report: OracleReport) -> dict:
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == "active_constraints":
            out[f.name] = tuple((k, repr(v)) for k, v in value.items())
        else:
            out[f.name] = repr(value)
    return out


def test_golden_covers_every_report_field():
    names = {f.name for f in fields(OracleReport)}
    for cases in SEEDED.values():
        for case in cases:
            assert set(case) == names
    for case in LOW_LOAD_TPA.values():
        assert set(case) == names


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("pa_kind", list(PaKind))
def test_seeded_reports_unchanged(strategy, pa_kind):
    expected = SEEDED[(strategy.value, pa_kind.value)]
    scenarios = random_feasible_scenarios(7, strategy, pa_kind, len(expected))
    for s, want in zip(scenarios, expected):
        assert _reprs(verify(s, solve(s))) == want


@pytest.mark.parametrize("strategy", list(Strategy))
def test_low_load_tpa_reports_unchanged(strategy):
    s = ScenarioParams(pa=PaKind.TPA, r_fl_mbps=1.0, r_rl_mbps=1.0,
                       strategy=strategy).build()
    assert _reprs(verify(s, solve(s))) == LOW_LOAD_TPA[strategy.value]
