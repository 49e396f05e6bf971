"""The package's public names: every export resolves, once, and lazily
(PEP 562); the value types are immutable."""

import pytest

import moutardkit
from moutardkit import construct, decay, gallery, harmonic, moutard, numeric, positivity, search
from moutardkit.polynomials import BivariatePoly

X, Y = BivariatePoly.variables()


def test_every_exported_name_resolves():
    missing = [name for name in moutardkit.__all__ if not hasattr(moutardkit, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(moutardkit.__all__)) == len(moutardkit.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from moutardkit import *", namespace)
    assert set(moutardkit.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(moutardkit, "nope")
    with pytest.raises(ImportError):
        exec("from moutardkit import nope", {})


def test_dir_lists_the_exports():
    assert set(moutardkit.__all__) <= set(dir(moutardkit))


@pytest.fixture(scope="module")
def values():
    """One instance of every value type the package defines."""
    example = gallery.get_example(1)
    report, certificate = search.verify_example_full(1)
    return [
        example,
        example.reference,
        example.seeds,
        report,
        report.record,
        report.result,
        certificate,
        certificate.cells[0],
        report.u_report,
        positivity.global_positivity(X * X + Y * Y - BivariatePoly.constant(1)),
        positivity.two_squares(X * X + Y * Y, X, Y),
        harmonic.random_combo(2, 0, 3),
        numeric.numeric_l2_norm(example.reference.psi1, 8, 4, 4),
        moutard.ClosedOneForm(X, Y),
    ]


def test_every_value_type_has_an_instance(values):
    defined = {
        value
        for module in (construct, decay, gallery, harmonic, moutard, numeric, positivity, search)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
    }
    assert {type(value) for value in values} == defined


def test_value_types_are_immutable(values):
    for value in values:
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None  # no instance dict: every subclass keeps __slots__ = ()
