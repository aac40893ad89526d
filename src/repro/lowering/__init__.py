"""AST -> IR lowering, plus the one-call frontend entry point."""

from typing import Iterable, Tuple, Union

from ..android.framework import FRAMEWORK_CLASS_NAMES, install_framework
from ..ir import Module, verify_module
from ..lang import parse_program
from ..lang.errors import SourceError
from .lower import Lowerer

__all__ = ["Lowerer", "lower_sources", "compile_app"]


def lower_sources(
    sources: Union[str, Iterable[Tuple[str, str]]],
    module_name: str = "app",
    seal: bool = True,
) -> Module:
    """Parse and lower MiniDroid source text into a verified (by default
    sealed) IR module.

    ``sources`` is either one source string or an iterable of
    ``(filename, source)`` pairs.  The Android stub classes are installed
    first so applications can extend and call into them.  Pass
    ``seal=False`` when the module will be further transformed (the
    threadifier adds synthetic classes and seals itself).
    """
    if isinstance(sources, str):
        sources = [("<source>", sources)]
    module = Module(module_name)
    install_framework(module)

    parsed = [(fname, parse_program(text, fname)) for fname, text in sources]
    lowerer = Lowerer(module)
    for fname, program in parsed:
        lowerer.filename = fname
        lowerer.declare_program(program)
    for fname, program in parsed:
        lowerer.filename = fname
        lowerer.lower_program(program)
    if seal:
        module.seal()

    problems = verify_module(module, known_external=FRAMEWORK_CLASS_NAMES)
    if problems:
        raise SourceError(
            "IR verification failed:\n  " + "\n  ".join(problems)
        )
    return module


# compile_app is the name examples use; it reads more naturally there.
compile_app = lower_sources
