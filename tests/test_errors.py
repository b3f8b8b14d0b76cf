import inspect
import pickle

import pytest

from duetsim import errors

ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.DuetSimError)),
    key=lambda cls: cls.__name__)


def example(cls):
    """An instance of ``cls`` built the way the package builds one."""
    if cls.__init__ is Exception.__init__:
        return cls("something went wrong")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*(7 if p.annotation in (int, "int") else f"{p.name} text"
                 for p in params))


def test_every_error_class_is_covered():
    assert len(ERROR_CLASSES) > 30
    assert {"SchemaViolation", "EndpointError", "ConfigError",
            "LogParseError"} <= {cls.__name__ for cls in ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    """A worker process sends an error back to its parent pickled; it must
    arrive as the same class with the same message and fields."""
    error = example(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
