import gc

gc.disable()  # before cli loads numpy: cli's docstring says why
from .cli import entry  # noqa: E402

entry()
