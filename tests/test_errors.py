import inspect
import re
from pathlib import Path

from blocktoeplitz import errors


def test_every_error_type_is_used():
    # an error type that no module raises or catches is dead code
    package = Path(errors.__file__).parent
    source = "\n".join(path.read_text() for path in package.glob("*.py")
                       if path.name != "errors.py")
    names = [name for name, obj in inspect.getmembers(errors, inspect.isclass)
             if obj.__module__ == errors.__name__]
    unused = [name for name in names
              if not re.search(rf"\berrors\.{name}\b", source)]
    assert names and not unused
