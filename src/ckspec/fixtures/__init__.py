"""Built-in fixture models, one per classification branch."""

from importlib import resources

from ..model import ValidatedModel, parse_model_json

NAMES = ["half", "ray1", "twocyc", "per3_isolated", "zero", "bundlezero"]


def fixture_text(name: str) -> str:
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(NAMES)}")
    return resources.files(__name__).joinpath(f"{name}.json").read_text("utf-8")


def load_fixture(name: str) -> ValidatedModel:
    return parse_model_json(fixture_text(name))
