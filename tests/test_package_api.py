"""The package exports the description API; the per-strategy wrappers live
only in their modules."""

import fdrelay
from fdrelay import feasibility, strategies

PER_STRATEGY = ["PowerAssignment1TS", "PowerAssignment2TS",
                "caps_1ts", "caps_2ts", "caps_hd",
                "powers_1ts", "powers_2ts", "powers_hd",
                "energy_1ts", "energy_2ts", "energy_hd",
                "energy_1ts_at", "energy_2ts_at", "energy_hd_at"]


def test_exports_the_description_api():
    assert fdrelay.DESCRIPTIONS is strategies.DESCRIPTIONS
    assert fdrelay.Description is strategies.Description
    assert fdrelay.Slot is strategies.Slot
    assert fdrelay.tmin_for is feasibility.tmin_for


def test_per_strategy_wrappers_are_not_reexported():
    assert [name for name in PER_STRATEGY if hasattr(fdrelay, name)] == []
    assert all(hasattr(strategies, name) for name in PER_STRATEGY)


def test_only_the_benchmarked_windows_stay():
    assert fdrelay.tmin_1ts is feasibility.tmin_1ts
    assert fdrelay.tmin_2ts is feasibility.tmin_2ts
    assert fdrelay.tmin_hd is feasibility.tmin_hd
    assert not hasattr(fdrelay, "tmin_slots")
