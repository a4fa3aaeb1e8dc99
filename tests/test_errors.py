import inspect
import pickle

from thermocc import errors


def test_every_error_pickles():
    """Worker processes hand errors back to the caller by pickling."""
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.ThermoccError)]
    assert errors.DataIOError in classes
    for cls in classes:
        copy = pickle.loads(pickle.dumps(cls("cannot write x: denied")))
        assert type(copy) is cls
        assert str(copy) == "cannot write x: denied"
