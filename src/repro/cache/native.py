"""The native access kernel: built once per user, loaded on first use.

``_native_kernel.c`` implements :class:`PartitionedCache`'s access kernel
in C for the builds that keep no rank order (FullAssoc on the exact
fully-associative array and the direct-mapped unpartitioned cache, over
exact LRU or OPT, with no observer but the cache's own statistics; see
DESIGN.md §6.1, *Native kernel*).  Nothing here runs at ``import repro``:
the first covered build calls :func:`native_kernel`, which compiles the C
source with the interpreter's own ``sysconfig`` compiler settings into
``~/.cache/repro/native/`` (the file name carries the source hash and
``EXT_SUFFIX``, and the file is renamed into place, so concurrent builds
leave one whole module) and loads it.  Where that fails, a warning says
so once per process and every cache keeps its Python kernel, which
computes the same results.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Optional

__all__ = ["CACHE_DIR", "SOURCE", "build", "load", "module_path",
           "native_kernel", "source_hash", "unavailable"]

SOURCE = Path(__file__).with_name("_native_kernel.c")
CACHE_DIR = Path.home() / ".cache" / "repro" / "native"
MODULE_NAME = "repro.cache._native_kernel"

#: The loaded extension module, once :func:`load` has built it.
_module: Any = None
#: Why the module could not be built or loaded (then it is not retried).
_failure: Optional[str] = None


def source_hash() -> str:
    """sha256 of the C source: the build cache's key."""
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def module_path(cache_dir: Path, digest: str) -> Path:
    """Where the module built from the source with sha256 ``digest`` for
    this interpreter lives in ``cache_dir``."""
    import sysconfig
    return cache_dir / "_native_kernel-{}{}".format(
        digest[:16], sysconfig.get_config_var("EXT_SUFFIX"))


def _compile(target: Path) -> None:
    """Compile the C source into ``target``: into a temporary file in the
    same directory first, then renamed over ``target`` in one step."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    config = sysconfig.get_config_var
    if not config("LDSHARED"):
        raise OSError("this interpreter records no C compiler (LDSHARED)")
    paths = sysconfig.get_paths()
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", dir=target.parent)
    os.close(fd)
    try:
        command = (shlex.split(config("LDSHARED"))
                   + shlex.split(config("CFLAGS") or "")
                   + shlex.split(config("CCSHARED") or "")
                   + ["-I" + paths["include"], "-I" + paths["platinclude"],
                      str(SOURCE), "-o", tmp])
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            raise OSError("compiling {} failed:\n{}".format(
                SOURCE.name, done.stdout.strip()))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build(cache_dir: Path) -> Any:
    """The extension module from ``cache_dir``, compiled there first when
    no module for this source and interpreter is cached."""
    import importlib.util

    digest = source_hash()
    path = module_path(cache_dir, digest)
    if not path.exists():
        _compile(path)
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.SOURCE_HASH = digest
    return module


def load() -> Any:
    """The extension module, or ``None`` when it cannot be built here (the
    first failure warns; later calls return ``None`` at once)."""
    global _module, _failure
    if _module is None and _failure is None:
        try:
            _module = build(CACHE_DIR)
        except (OSError, ImportError) as exc:
            _failure = "{}: {}".format(type(exc).__name__, exc)
            warnings.warn(
                "the native access kernel is unavailable, so covered caches "
                "run the Python kernel ({})".format(_failure),
                RuntimeWarning, stacklevel=2)
    return _module


def unavailable() -> Optional[str]:
    """Why the native kernel is not in use, or ``None`` when it loads."""
    return None if load() is not None else _failure


def native_kernel(python_kernel: Callable, ns: Dict[str, Any],
                  opt: bool) -> Optional[Callable]:
    """The native twin of ``python_kernel``, built from the namespace it was
    compiled into (``opt``: the ranking is OPT), or ``None``."""
    module = load()
    if module is None:
        return None
    source = "# native kernel {} (C source sha256 {})\n{}".format(
        MODULE_NAME, module.SOURCE_HASH[:16],
        python_kernel.__kernel_source__)
    return module.NativeKernel(python_kernel, source, ns, opt)
