"""The hot records of the run loop carry every field.

The run loop builds its per-cycle records (frames, transmissions, poses, beacon
reports, controller decisions) with `frames.new_record`, which is
`tuple.__new__`: it runs in C but, unlike a NamedTuple's own constructor,
never checks the number of fields or fills a default.  These runs replace
`new_record` in every module that imports it with a checking wrapper, so a
construction site that drops or adds a field fails here, at the site, rather
than in a later unpack or only as a changed digest.
"""

import importlib
import pkgutil

import pytest

import wctrlsim
from conftest import SCENARIO_DIR, fleet_raw, lossy_raw
from test_golden_digests import GOLDEN, _sha256
from wctrlsim.scenario import config_from_dict, load_config
from wctrlsim.simulation import run_scenario

HOT_RECORDS = {"SyncFrame", "CmdFrame", "FbFrame", "Transmission", "Pose", "BeaconReception",
               "BeaconReport", "LaneDecision", "CycleDecisions"}

CONFIGS = {"fleet": lambda: config_from_dict(fleet_raw()),
           "lossy": lambda: config_from_dict(lossy_raw()),
           "platoon": lambda: load_config(SCENARIO_DIR / "leader_follower_l.json")}


def checking_new_record(built: set[str]):
    def new_record(cls, values):
        record = tuple.__new__(cls, values)
        assert len(values) == len(cls._fields), (cls.__name__, values)
        assert cls._make(values) == record
        built.add(cls.__name__)
        return record
    return new_record


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_every_hot_record_is_built_with_all_its_fields(case, monkeypatch):
    config = CONFIGS[case]()
    built: set[str] = set()
    patched = set()
    for info in pkgutil.iter_modules(wctrlsim.__path__):
        module = importlib.import_module(f"wctrlsim.{info.name}")
        if getattr(module, "new_record", None) is tuple.__new__:
            monkeypatch.setattr(module, "new_record", checking_new_record(built))
            patched.add(info.name)
    assert patched >= {"channel", "controller", "mac", "robot", "simulation"}

    result = run_scenario(config)
    assert built == HOT_RECORDS
    assert _sha256(result.trace.to_csv()) == GOLDEN[case][0]
