"""Native backend of the compiled engine: generated lane kernels in C.

:func:`lower` translates the generated lane-kernel source (the ``"c"``
variant of :func:`repro.engine.compiled.generate_kernel_source`, which
indexes the ndarrays directly) into C by walking its :mod:`ast`.  There
is no hand-written C loop: the emit sequence stays the one source of the
loop semantics, and the lowering only maps Python operations onto C ones
with the same IEEE-754 results:

* every value is a ``double``, except the names the caller declares
  integer (loop index, record and event counters) or boolean;
* binary operations keep Python's evaluation order (each one is
  parenthesised) and the library is built with ``-ffp-contract=off
  -fno-fast-math``, so no multiply-add is fused and nothing is
  reassociated;
* float ``%`` is ``fmod`` plus CPython's ``float_rem`` sign fix-up;
* ``floor``/``trunc``/``round`` return Python ints, which have no
  negative zero, so they lower to ``floor``/``trunc``/``nearbyint`` plus
  ``0.0`` (``-0.0 + 0.0`` is ``+0.0``; every other value is unchanged).
  ``nearbyint`` rounds ties to even, as ``round`` does.  Python raises
  on an infinite or NaN argument where C returns it, so the lowered call
  sets a flag instead, and a kernel that set it returns -1 in place of
  its return value: the caller raises where Python would have;
* ``sin``/``cos`` call the C library's, which is what :mod:`math` calls.

A built kernel takes its arrays as a few blocks (:func:`bind`), each
array a row of a 2-D block or a slice of a 1-D one: a call reads each
block's ``__array_interface__`` once and computes the table of array
pointers from the base addresses and fixed offsets.

:func:`load_or_build` builds the C source with the system compiler into
a persistent on-disk cache shared by every checkout on the host
(:func:`cache_dir`), so a plan compiles once per host, not once per
process.  A library is only ever loaded if its bytes hash to the
SHA-256 recorded when it passed its self-check, and loading a cached
library starts no process.
"""

from __future__ import annotations

import ast
import atexit
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import uuid
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

#: Compiler flags; part of every cache key.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
LIBS = ("-lm",)

_PRELUDE = """\
#include <math.h>
#include <stdint.h>

/* CPython's float_rem: the remainder takes the sign of the divisor */
static double py_fmod(double x, double y)
{
    double mod = fmod(x, y);
    if (mod != 0.0) {
        if ((y < 0.0) != (mod < 0.0))
            mod += y;
    } else {
        mod = copysign(0.0, y);
    }
    return mod;
}

/* Python's integer %: floored */
static int64_t py_imod(int64_t x, int64_t y)
{
    int64_t mod = x % y;
    if (mod != 0 && ((y < 0) != (mod < 0)))
        mod += y;
    return mod;
}

/* math.floor, math.trunc and round: Python ints have no negative zero,
   and Python raises on inf and nan, so those set *nonfinite */
static inline double py_round(double (*round)(double), double x,
                              int *nonfinite)
{
    *nonfinite |= !isfinite(x);
    return round(x) + 0.0;
}
"""

_C_TYPES = {"double": "double", "int": "int64_t", "bool": "int"}
_ARRAY_C_TYPES = {"double": "double", "int": "int64_t",
                  "bool": "unsigned char"}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CMPOPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}
#: Python calls the lowering knows, as ``name -> (C template, type)``.
_CALLS = {
    "floor": ("py_round(floor, {}, &nonfinite)", "double"),
    "trunc": ("py_round(trunc, {}, &nonfinite)", "double"),
    "rnd": ("py_round(nearbyint, {}, &nonfinite)", "double"),
    "sin": ("sin({})", "double"),
    "cos": ("cos({})", "double"),
    "int": ("((int64_t)({}))", "int"),
}


class LoweringError(Exception):
    """The generated source used a construct the C lowering does not know."""


class BuildError(Exception):
    """A library could not be built, or it failed its self-check."""


class _Lowering:
    """One function's Python AST to C, statement by statement."""

    def __init__(self, fn: ast.FunctionDef, scalars: Sequence[str],
                 ints: Sequence[str], bools: Sequence[str],
                 array_types: Dict[str, str]):
        args = [a.arg for a in fn.args.args]
        self.scalars = [a for a in args if a in scalars]
        self.arrays = [a for a in args if a not in scalars]
        self.array_types = {a: array_types.get(a, "double")
                            for a in self.arrays}
        self.types = {name: "int" for name in ints}
        self.types.update((name, "int") for name in self.scalars)
        self.types.update((name, "bool") for name in bools)
        self.alias: Dict[str, str] = {}
        self.assigned: Dict[str, None] = {}  # locals, in first-use order
        self.lengths: list = []
        self.lines: list = []
        self.loops = 0
        self.body = []
        for stmt in fn.body:
            # ``name_r = name`` only re-binds an array argument
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Name)
                    and self._array(stmt.value.id) is not None):
                self.alias[stmt.targets[0].id] = self._array(stmt.value.id)
            else:
                self.body.append(stmt)

    def _array(self, name: str) -> Optional[str]:
        name = self.alias.get(name, name)
        return name if name in self.array_types else None

    def type_of(self, name: str) -> str:
        return self.types.get(name, "double")

    # -- expressions -------------------------------------------------------

    def expr(self, node) -> Tuple[str, str]:
        """``(C expression, type)`` of a Python expression."""
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool):
                return ("1" if value else "0"), "bool"
            if isinstance(value, int):
                text = str(value) if abs(value) < 2 ** 31 \
                    else f"INT64_C({value})"
                return text, "int"
            if isinstance(value, float):
                return f"({value.hex()})", "double"
        elif isinstance(node, ast.Name):
            if self._array(node.id) is None:
                return f"v_{node.id}", self.type_of(node.id)
        elif isinstance(node, ast.BinOp):
            left, lt = self.expr(node.left)
            right, rt = self.expr(node.right)
            both_int = lt != "double" and rt != "double"
            if type(node.op) in _BINOPS:
                op = _BINOPS[type(node.op)]
                return (f"({left} {op} {right})",
                        "int" if both_int else "double")
            if isinstance(node.op, ast.Div):
                return f"((double)({left}) / (double)({right}))", "double"
            if isinstance(node.op, ast.Mod):
                if both_int:
                    return f"py_imod({left}, {right})", "int"
                return f"py_fmod({left}, {right})", "double"
        elif isinstance(node, ast.UnaryOp):
            operand, ot = self.expr(node.operand)
            if isinstance(node.op, ast.USub):
                return f"(-{operand})", "int" if ot == "bool" else ot
            if isinstance(node.op, ast.Not):
                return f"(!{operand})", "bool"
        elif isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            values = (self.expr(v)[0] for v in node.values)
            return "(" + op.join(values) + ")", "bool"
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and type(node.ops[0]) in _CMPOPS:
            left = self.expr(node.left)[0]
            right = self.expr(node.comparators[0])[0]
            return f"({left} {_CMPOPS[type(node.ops[0])]} {right})", "bool"
        elif isinstance(node, ast.IfExp):
            test = self.expr(node.test)[0]
            body, bt = self.expr(node.body)
            other, ot = self.expr(node.orelse)
            kind = bt if bt == ot else "double"
            return f"({test} ? {body} : {other})", kind
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and len(node.args) == 1 and not node.keywords):
            name = node.func.id
            if name == "len" and isinstance(node.args[0], ast.Name) \
                    and self._array(node.args[0].id) is not None:
                array = self._array(node.args[0].id)
                if array not in self.lengths:
                    self.lengths.append(array)
                return f"len_{array}", "int"
            if name in _CALLS:
                template, kind = _CALLS[name]
                return template.format(self.expr(node.args[0])[0]), kind
        elif isinstance(node, ast.Subscript):
            return self.subscript(node)
        raise LoweringError(f"cannot lower {ast.unparse(node)!r}")

    def subscript(self, node: ast.Subscript) -> Tuple[str, str]:
        if not isinstance(node.value, ast.Name) \
                or self._array(node.value.id) is None:
            raise LoweringError(f"cannot lower {ast.unparse(node)!r}")
        array = self._array(node.value.id)
        index, kind = self.expr(node.slice)
        if kind == "double":
            raise LoweringError(f"float index in {ast.unparse(node)!r}")
        return f"a_{array}[{index}]", self.array_types[array]

    # -- statements --------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def assign(self, target, value_node, depth: int) -> None:
        value, kind = self.expr(value_node)
        if isinstance(target, ast.Name) and self._array(target.id) is None:
            declared = self.type_of(target.id)
            if declared != "double" and kind == "double":
                raise LoweringError(
                    f"float assigned to {declared} name {target.id!r}")
            if target.id not in self.scalars:
                self.assigned[target.id] = None
            self.emit(depth, f"v_{target.id} = {value};")
        elif isinstance(target, ast.Subscript):
            slot, kind_slot = self.subscript(target)
            if kind_slot == "bool":
                value = f"({value} != 0)"
            self.emit(depth, f"{slot} = {value};")
        else:
            raise LoweringError(f"cannot assign to {ast.unparse(target)!r}")

    def block(self, stmts, depth: int) -> None:
        for stmt in stmts:
            self.statement(stmt, depth)

    def statement(self, stmt, depth: int) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self.assign(stmt.targets[0], stmt.value, depth)
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            load = ast.Name(stmt.target.id, ast.Load())
            self.assign(stmt.target, ast.BinOp(load, stmt.op, stmt.value),
                        depth)
        elif isinstance(stmt, ast.If):
            self.emit(depth, f"if ({self.expr(stmt.test)[0]}) {{")
            self.block(stmt.body, depth + 1)
            if stmt.orelse:
                self.emit(depth, "} else {")
                self.block(stmt.orelse, depth + 1)
            self.emit(depth, "}")
        elif (isinstance(stmt, ast.For) and not stmt.orelse
              and isinstance(stmt.target, ast.Name)
              and self.type_of(stmt.target.id) == "int"
              and isinstance(stmt.iter, ast.Call)
              and isinstance(stmt.iter.func, ast.Name)
              and stmt.iter.func.id == "range"
              and len(stmt.iter.args) == 1):
            stop, kind = self.expr(stmt.iter.args[0])
            if kind == "double":
                raise LoweringError("range() over a float")
            bound = f"stop_{self.loops}"
            self.loops += 1
            self.assigned[stmt.target.id] = None
            var = f"v_{stmt.target.id}"
            # range() evaluates its bound once, before the first pass
            self.emit(depth, f"const int64_t {bound} = {stop};")
            self.emit(depth, f"for ({var} = 0; {var} < {bound}; {var}++) {{")
            self.block(stmt.body, depth + 1)
            self.emit(depth, "}")
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.emit(depth, "return nonfinite ? INT64_C(-1) : "
                      f"(int64_t)({self.expr(stmt.value)[0]});")
        else:
            raise LoweringError(f"cannot lower {ast.unparse(stmt)!r}")


def lower(source: str, scalars: Sequence[str], ints: Sequence[str] = (),
          bools: Sequence[str] = (), array_types: Optional[Dict] = None
          ) -> Tuple[str, Tuple[str, ...]]:
    """Lower one generated Python function to a C translation unit.

    ``scalars`` names the arguments passed by value (as ``int64``); every
    other argument is an array of ``array_types[name]`` (``"double"`` by
    default, or ``"int"``/``"bool"``).  The C function is::

        int64_t kernel(int64_t <scalar>..., int64_t len_<array>...,
                       void *const *arrays);

    with one length argument per array the source takes ``len()`` of and
    ``arrays`` holding every array argument's data pointer in argument
    order.  A ``return`` returns -1 instead of its value once a rounding
    call has met a value that is not finite.  Returns ``(c_source,
    length_arrays)``.  Raises :class:`LoweringError` on a construct it
    does not know.
    """
    fn = ast.parse(source).body[0]
    if not isinstance(fn, ast.FunctionDef):
        raise LoweringError("expected one function definition")
    low = _Lowering(fn, scalars, ints, bools, array_types or {})
    low.block(low.body, 1)
    body = low.lines
    header = ["    int nonfinite = 0;"]
    for name in low.assigned:
        kind = low.type_of(name)
        zero = "0.0" if kind == "double" else "0"
        header.append(f"    {_C_TYPES[kind]} v_{name} = {zero};")
    for index, name in enumerate(low.arrays):
        ctype = _ARRAY_C_TYPES[low.array_types[name]]
        header.append(f"    {ctype} *a_{name} = ({ctype} *)arrays[{index}];")
    params = [f"int64_t v_{name}" for name in low.scalars]
    params += [f"int64_t len_{name}" for name in low.lengths]
    params.append("void *const *arrays")
    c_source = "\n".join(
        [_PRELUDE, f"int64_t kernel({', '.join(params)})", "{"]
        + header + body + ["}", ""])
    return c_source, tuple(low.lengths)


def bind(library: ctypes.CDLL, n_scalars: int,
         layout: Sequence[Tuple[int, object]], block_types: Sequence[str],
         lengths: Sequence[int] = ()) -> Callable:
    """A Python callable over a built library, taking its arrays as blocks.

    The callable takes the source's ``n_scalars`` scalar arguments, then
    one C-contiguous array per entry of ``block_types`` (``"double"``,
    ``"int"`` or ``"bool"``), and raises ``ValueError`` for a block of
    another dtype or layout.  ``layout`` places the source's array
    arguments in the blocks, in argument order: ``(block, index)`` makes
    the argument ``blocks[block][index]``, a row of a 2-D block or a
    slice of a 1-D one.  ``lengths`` are the positions in ``layout`` of
    the arguments the source takes ``len()`` of (:func:`lower` names
    them).  Sizing the blocks for the call is the caller's job.
    """
    fn = library.kernel
    fn.argtypes = [ctypes.c_int64] * (n_scalars + len(lengths)) \
        + [ctypes.c_void_p]
    fn.restype = ctypes.c_int64
    dtypes = {"double": np.float64, "int": np.int64, "bool": np.bool_}
    typestrs = [np.dtype(dtypes[kind]).str for kind in block_types]
    owner = np.array([block for block, _ in layout], dtype=np.intp)
    first = np.array([index.start or 0 if isinstance(index, slice) else index
                      for _, index in layout], dtype=np.uintp)
    views = [layout[position] for position in lengths]

    def kernel(*values):
        blocks = values[n_scalars:]
        # strides are None exactly when an array is C-contiguous
        interfaces = [block.__array_interface__ for block in blocks]
        if [i["typestr"] for i in interfaces] != typestrs or any(
                i["strides"] is not None for i in interfaces):
            raise ValueError("kernel blocks must be C-contiguous and of "
                             "the declared dtypes")
        # an argument starts at its block's base plus its index times the
        # block's first stride (a row, or an element of a 1-D block)
        bases = np.array([i["data"][0] for i in interfaces], dtype=np.uintp)
        rows = np.array([block.strides[0] for block in blocks],
                        dtype=np.uintp)
        table = bases[owner] + first * rows[owner]
        sizes = [len(blocks[block][index]) for block, index in views]
        return fn(*values[:n_scalars], *sizes,
                  table.__array_interface__["data"][0])

    kernel.library = library
    return kernel


def find_compiler() -> Optional[Tuple[str, ...]]:
    """The C compiler command: ``$CC``, else Python's build ``CC``.

    The first word is resolved on ``PATH``; ``None`` when it is not
    found (the compiled engine then runs its Python kernels).
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    words = shlex.split(cc)
    path = shutil.which(words[0]) if words else None
    if path is None:
        return None
    return (os.path.realpath(path),) + tuple(words[1:])


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro/kernels``.

    ``XDG_CACHE_HOME`` defaults to ``~/.cache``.  The directory is shared
    by every checkout on the host and is never a temporary directory.
    """
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "kernels"


_fallback_dir: Optional[str] = None


def _writable_cache() -> Path:
    """The cache directory, or a per-process one if it cannot be written."""
    global _fallback_dir
    path = cache_dir()
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / f".probe-{os.getpid()}-{uuid.uuid4().hex}"
        probe.touch()
        probe.unlink()
        return path
    except OSError as exc:
        if _fallback_dir is None:
            _fallback_dir = tempfile.mkdtemp(prefix="repro-kernels-")
            atexit.register(shutil.rmtree, _fallback_dir, ignore_errors=True)
            warnings.warn(
                f"kernel cache {path} is not writable ({exc}); building "
                f"into {_fallback_dir} for this process only",
                RuntimeWarning, stacklevel=4)
        return Path(_fallback_dir)


def _libc_version() -> str:
    """The GNU C library version, or ``""`` on a host without one.

    ``os.confstr`` does not exist on Windows and raises ``ValueError``
    for the name where the C library does not define it (macOS, musl).
    """
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return ""


def cache_key(c_source: str, compiler: Sequence[str]) -> str:
    """SHA-256 over the source, the flags, the compiler and the C library."""
    stat = os.stat(compiler[0])
    digest = hashlib.sha256()
    for part in (c_source, " ".join(FLAGS + LIBS), " ".join(compiler),
                 f"{stat.st_size}:{stat.st_mtime_ns}", _libc_version()):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _load_verified(library: Path, record: Path) -> Optional[ctypes.CDLL]:
    """Load ``library`` if its bytes match the recorded SHA-256."""
    try:
        expected = record.read_text().strip()
        data = library.read_bytes()
    except OSError:
        return None
    if hashlib.sha256(data).hexdigest() != expected:
        return None
    try:
        return ctypes.CDLL(str(library))
    except OSError:
        return None


def load_or_build(c_source: str, compiler: Sequence[str],
                  bind_library: Callable[[ctypes.CDLL], Callable],
                  check: Callable[[Callable], bool]) -> Callable:
    """A callable kernel for ``c_source``, from the cache or a fresh build.

    A cached library whose bytes hash to its recorded SHA-256 is loaded
    as is.  Anything else is compiled under a unique temporary name in
    the cache directory and passed to ``check`` (the self-check).  When
    ``check`` returns ``True`` the library is moved into place with
    ``os.replace`` and its SHA-256 recorded after it, so concurrent
    builders never see a partial file.  A compiler failure or a
    ``False`` check raises :class:`BuildError`, as may ``check`` itself
    when it cannot run.
    """
    directory = _writable_cache()
    key = cache_key(c_source, compiler)
    library = directory / f"{key}.so"
    record = directory / f"{key}.sha256"
    loaded = _load_verified(library, record)
    if loaded is not None:
        return bind_library(loaded)

    stem = directory / f"{key}.{os.getpid()}-{uuid.uuid4().hex}"
    c_path, so_path, sum_path = (Path(f"{stem}{suffix}")
                                 for suffix in (".c", ".so", ".sha256"))
    try:
        c_path.write_text(c_source)
        done = subprocess.run(
            [*compiler, *FLAGS, "-o", str(so_path), str(c_path), *LIBS],
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if done.returncode != 0:
            raise BuildError(f"{compiler[0]} exited with {done.returncode}: "
                             f"{done.stderr.strip()[-2000:]}")
        kernel = bind_library(ctypes.CDLL(str(so_path)))
        if not check(kernel):
            raise BuildError("the built kernel differs from the Python "
                             "kernel on the self-check input")
        sum_path.write_text(hashlib.sha256(so_path.read_bytes()).hexdigest())
        os.replace(so_path, library)
        os.replace(sum_path, record)
        return kernel
    except OSError as exc:
        raise BuildError(f"cannot build in {directory}: {exc}") from exc
    finally:
        for path in (c_path, so_path, sum_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
