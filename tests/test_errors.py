"""Every error class is a rule the package enforces."""
import ast
from pathlib import Path

import bdts
from bdts import errors


def raised_names():
    """The name of each class that a ``raise`` under ``src/bdts`` raises."""
    names = set()
    for path in Path(bdts.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    # a class that only tests tell apart is public API that only tests call
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes - raised_names() == set()
