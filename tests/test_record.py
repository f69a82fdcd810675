"""The value records keep the promises of the dataclasses they replaced:
their constructors, ==, hash, repr and frozenness."""

import pytest

from tangency.cones import ConeCertificate, RumpResult
from tangency.covering import CoveringCertificate
from tangency.henon import HenonChain, HenonConfig
from tangency.manifold import DiskCertificate, DiskConstants
from tangency.toy import ToyChain, ToyParams

# (class, fields in constructor order, fields that == and hash skip, fields
# that repr skips): the compare=False and repr=False fields of the
# dataclasses.
FROZEN = [
    (CoveringCertificate,
     ("source", "target", "correspondence", "grid", "exit_margins", "entry_margin",
      "local_jacobian"),
     {"exit_margins", "local_jacobian"}, {"local_jacobian"}),
    (RumpResult, ("positive_definite", "vertex_margins"), set(), set()),
    (ConeCertificate, ("link", "matrix", "rump"), {"matrix", "rump"}, set()),
    (DiskConstants,
     ("a_lower", "m_upper", "l_upper", "gamma", "gamma_check", "delta", "epsilon"),
     set(), set()),
    (DiskCertificate,
     ("side", "set_name", "constants", "covering", "cone", "param_coefficient",
      "comparison_lower"),
     {"covering", "cone"}, set()),
    (HenonChain, ("sets", "forms"), set(), set()),
    (ToyParams, ("lam", "mu", "delta", "eps", "grid"), set(), set()),
    (ToyChain, ("sets", "forms", "maps", "k", "s"), set(), set()),
]
IDS = [cls.__name__ for cls, *_ in FROZEN]


def _values(fields, uncompared):
    # An uncompared field holds an unhashable dict, which hash must skip.
    return [{"field": f} if f in uncompared else (f, i) for i, f in enumerate(fields)]


@pytest.mark.parametrize("cls, fields, uncompared, unshown", FROZEN, ids=IDS)
def test_eq_and_hash_skip_the_uncompared_fields(cls, fields, uncompared, unshown):
    values = _values(fields, uncompared)
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert hash(record) == hash(cls(*values))
    for i, name in enumerate(fields):
        other = cls(*values[:i], object(), *values[i + 1:])
        assert (record == other) is (name in uncompared), name
        if name in uncompared:
            assert hash(record) == hash(other), name
    assert record != values
    assert record.__eq__(tuple(values)) is NotImplemented


@pytest.mark.parametrize("cls, fields, uncompared, unshown", FROZEN, ids=IDS)
def test_repr_shows_the_shown_fields(cls, fields, uncompared, unshown):
    values = _values(fields, uncompared)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values) if f not in unshown)
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, uncompared, unshown", FROZEN, ids=IDS)
def test_frozen(cls, fields, uncompared, unshown):
    record = cls(*_values(fields, uncompared))
    for name in fields + ("undeclared",):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, f) for f in fields] == _values(fields, uncompared)


def test_defaults():
    assert ToyParams() == ToyParams(2.0, 0.5, 0.5, 0.01, 1)
    assert HenonConfig() == HenonConfig(1e-5, 1, None)
    disk = DiskCertificate("stable", "N", None, None, None)
    assert (disk.param_coefficient, disk.comparison_lower, disk.passed) == (0.0, 0.0, False)


def test_henon_config_is_mutable_and_unhashable():
    config = HenonConfig()
    assert HenonConfig.FIELDS == ("param_radius", "grid", "correspondences")
    for name, value in zip(HenonConfig.FIELDS, (2e-5, 2, {1: [[0, 0, 1]]})):
        setattr(config, name, value)
    assert config == HenonConfig(2e-5, 2, {1: [[0, 0, 1]]})
    assert config != HenonConfig(2e-5, 2)
    assert repr(config) == (
        "HenonConfig(param_radius=2e-05, grid=2, correspondences={1: [[0, 0, 1]]})")
    with pytest.raises(TypeError):
        hash(config)
    with pytest.raises(AttributeError):
        config.threads = 2
