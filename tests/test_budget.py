"""The one budget channel: ``budget_scope``, then AFFINE_VIS_BUDGET, then the default."""

import importlib
import inspect
import pkgutil

import pytest

import affinevis
from affinevis.errors import DEFAULT_BUDGET, BudgetError, budget_limit, budget_scope
from affinevis.symbolic import attractor_cloud

# the one function that sets the budget, and the one whose report echoes it
BUDGET_PARAMETER_OWNERS = {"affinevis.errors.budget_scope", "affinevis.runner.run_scenario"}


def _package_functions():
    """Every function and method defined in an ``affinevis`` module."""
    for info in pkgutil.iter_modules(affinevis.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"affinevis.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static/class methods
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


@pytest.fixture(autouse=True)
def _no_environment_budget(monkeypatch):
    monkeypatch.delenv("AFFINE_VIS_BUDGET", raising=False)


def test_no_budget_parameter_outside_the_scope():
    # caps read budget_limit(); a budget parameter would be a second channel
    found = {n for n, fn in _package_functions() if "budget" in inspect.signature(fn).parameters}
    assert found == BUDGET_PARAMETER_OWNERS
    assert not inspect.signature(budget_limit).parameters


def test_precedence(monkeypatch):
    assert budget_limit() == DEFAULT_BUDGET
    monkeypatch.setenv("AFFINE_VIS_BUDGET", "1e3")
    assert budget_limit() == 1000
    with budget_scope(50):
        assert budget_limit() == 50
        with budget_scope(None):  # None keeps the active budget
            assert budget_limit() == 50
        with budget_scope("7.9"):
            assert budget_limit() == 7
        assert budget_limit() == 50
    assert budget_limit() == 1000


def test_scope_restored_after_an_exception():
    with pytest.raises(BudgetError):
        with budget_scope(10):
            attractor_cloud(affinevis.scenario("carpet-5.1").build_ifs(), 2.0**-6)
    assert budget_limit() == DEFAULT_BUDGET


@pytest.mark.parametrize("bad", [0, -5, "abc", "inf", "nan", ""])
def test_bad_scope_raises_on_entry(bad):
    with pytest.raises(ValueError, match="from the budget argument must be a finite number >= 1"):
        with budget_scope(bad):
            pass
    assert budget_limit() == DEFAULT_BUDGET


def test_bad_environment_budget_names_the_variable(monkeypatch):
    monkeypatch.setenv("AFFINE_VIS_BUDGET", "-3")
    with pytest.raises(ValueError, match="from AFFINE_VIS_BUDGET"):
        budget_limit()
    with budget_scope(100):  # an enclosing scope does not read the variable
        assert budget_limit() == 100
