"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every forward op computes eagerly on numpy arrays and, when gradients are
enabled, appends a backward rule to the module-level tape. ``backward()``
replays the tape in reverse execution order, which is always a valid
topological order of the computation graph, and accumulates gradients into
every tensor that requires them.

A tensor that requires a gradient keeps it in a ``GradSlot``, its ``grad``
and ``requires_grad``; an op output gets one only when it is recorded. A
record holds its output's slot, not the output, and a rule captures only
the slots of its inputs and the arrays it reads: ``matmul`` and
``block_mix`` read their operands (``matmul`` not the residual it may
take); ``ffn`` its input ``x``, its weights, its pre-activation ``h`` and
its GELU ``cdf``; ``block_scores`` its operands and its output, the softmax
of the scores it returns untaped; ``layer_norm`` its normalized rows,
``conv1d_same`` its padded copy of the input, attention its head-split
copies and the loss its exponentials; ``add_positions``, ``pack``,
``block_means`` and ``embedding_gather`` read only shapes, offsets, stream
spans and ids. So an op output's array lives while a rule reads it or a
caller holds it: a projection that attention copies, or a residual sum that
only ``layer_norm`` and the next op take, dies during the forward. A rule
binds what it keeps of its inputs as default arguments, so its signature
names all of it; binding them makes no closure cells, which every untaped
op of greedy decoding would pay for.

A rule that makes a fresh gradient nothing else holds (the input gradients
of ``matmul``, attention, ``layer_norm``, ``ffn`` and the loss) hands it to
``_accumulate`` as owned: a first write adopts it instead of copying it. A
gradient that a rule passes on unchanged (to the residual of ``matmul`` or
``ffn``, by ``pack`` and by ``add_positions``) is copied, since the slot it
came from still holds it.

``backward`` consumes the tape: once a record's rule has run, the record
keeps only its op name, so the arrays the rule read and every gradient
nobody else holds are freed while backward walks on. A ``Parameter`` is a
named tensor; freezing one is ``requires_grad = False``, after which it
gets no gradient, and an op none of whose inputs requires a gradient
records nothing. All storage is float64 and row-major; ops copy rather than
alias, and every forward result is checked for NaN/Inf. The one exception
to the copying is ``cached_attention``, the no-tape op of incremental
decoding, which runs on head-split views of its key and value rows.
``multi_head_attention`` splits the same way but copies the views: BLAS may
round a product over a strided view differently from one over a contiguous
copy, and training keeps the bits of the per-head op chain. Its record
saves those head-split copies, but not its (heads, n, m) probabilities,
which its backward recomputes one head group at a time, bit for bit. The
one other place that trades time for memory is ``ffn``, whose backward
computes its GELU output ``h * cdf`` again.

A packed tensor holds the rows of several examples, stacked: ``pack`` makes
one, and its ``offsets`` give each segment's first row plus the end (an
unpacked tensor, ``offsets`` None, is one segment). ``matmul``,
``add_positions``, ``layer_norm``, ``ffn`` and ``multi_head_attention``
keep the offsets of their row operand, and ``cross_entropy_with_logits``
reads them. Each op is one record for the whole batch and keeps the bits of
one record per example: elementwise and row-wise work (adds, the FFN's
GELU, ``layer_norm``'s rows, the loss's softmax) is one numpy call over all
rows, which rounds each row as a call over that example alone would; matrix
products, attention and the loss's sums run segment by segment; and a
gradient that sums over rows (a weight, a bias, a gain, a table of
positions) is taken segment by segment and added in reverse segment order,
the order in which a tape of one record per example adds them. One product
or column sum over all rows would round otherwise.

Long attention runs on two threads, bit for bit. ``_both`` hands one job to
the lane, one helper thread that starts on first use, and only where the
process may use two or more CPUs; a forked child starts its own. Only the
thread that runs ops hands out jobs, and it takes a job back that the lane
has not started by the time its own work is done. When one head's (n, m)
scores hold more than ``BLOCK`` elements, ``multi_head_attention``'s
forward runs its head groups two at a time, one on the lane, and a group
that runs alone shares its softmax row blocks with the lane; its backward
does the same with the recompute, runs its products in pairs and shares the
softmax backward's row blocks. Every product is still one whole BLAS call
and every reduction runs over a whole row, so no bit depends on the lane,
nor on which thread ran what. At import the module sets numpy's OpenBLAS to
one thread (``BLAS_THREADS`` is the count read back): two threads split
products whose sizes are not round numbers differently, and OpenBLAS caps
its count at the usable CPUs, so only one thread gives the same bits on
every host. The lane uses the second core.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import queue
import threading

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NonFiniteError, ShapeError, TapeError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _keep_freed_memory() -> None:
    """Start glibc's malloc at the thresholds its own heuristic ends at.

    Ops allocate and free arrays of up to a few MB every step. By default
    glibc maps an array over 128 KB with mmap and unmaps it on free, and it
    hands a free heap top of over 128 KB back to the kernel; it raises both
    limits only after it frees a mapped array larger than they are. Which
    arrays a step frees first thus decides whether the next step reuses its
    pages or faults fresh zeroed ones in: about 600 minor faults per greedily
    decoded example, and 1,000 per desk training step, where it should be
    none. Setting the limits where the heuristic caps them (32 MB to map,
    twice that to trim) keeps a step's freed memory for the next one. A libc
    without ``mallopt`` keeps its own policy."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()


def _openblas_functions(*stems: str) -> list:
    """The functions ``stems`` (``get_corename``, say) of the OpenBLAS that
    numpy loaded, as ctypes functions, under the first symbol name scheme
    that has them all; a None for each where no library has them."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for scheme in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            found = [getattr(lib, scheme.format(stem), None) for stem in stems]
            if None not in found:
                return found
    return [None] * len(stems)


def _one_blas_thread() -> int | None:
    """Set the OpenBLAS that numpy loaded to one thread, through its runtime
    setter, and return the count it then reports; None when no setter is
    found. Why one thread: see the module docstring."""
    setter, getter = _openblas_functions("set_num_threads", "get_num_threads")
    if setter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter(1)
    return int(getter())


# the OpenBLAS thread count read back after the import's pin, or None
BLAS_THREADS = _one_blas_thread()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Lane:
    """One helper thread that runs the jobs ``_both`` hands it, in turn."""

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="gbst-lane", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            job, box, claim, done = self.jobs.get()
            if claim.acquire(blocking=False):  # else the caller took the job back
                try:
                    box[:] = True, job()
                except BaseException as err:  # raised again on the thread that handed the job out
                    box[:] = False, err
            del job, box  # hold nothing of the caller's until the next job
            done.release()


_lane: _Lane | bool | None = None  # None until first use; False where there is none


def _get_lane() -> _Lane | None:
    """The lane, started on first use; None where the process may use one
    CPU. Ops run on one thread, as the module's tape does, so no lock."""
    global _lane
    if _lane is None:
        _lane = _Lane() if _usable_cpus() > 1 else False
    return _lane or None


def _forget_lane() -> None:
    """A forked child has no lane thread: let it start its own."""
    global _lane
    _lane = None


os.register_at_fork(after_in_child=_forget_lane)


def _in_turn(f, g):
    """``(f(), g())``, both on this thread."""
    return f(), g()


def _both(f, g):
    """``(f(), g())``, with ``g`` on the lane while ``f`` runs here; an
    exception of ``g`` is raised here. If the lane has not started ``g`` when
    ``f`` returns, as when another process holds the second core, ``g`` runs
    here instead. Without a lane, or on the lane itself (its one thread
    would wait for itself), both run here in turn."""
    lane = _get_lane()
    if lane is None or threading.get_ident() == lane.thread.ident:
        return _in_turn(f, g)
    box, claim, done = [], threading.Lock(), threading.Lock()
    done.acquire()
    lane.jobs.put((g, box, claim, done))
    try:
        first = f()
    finally:
        took = claim.acquire(blocking=False)  # the lane has not started g, and now never will
        if not took:
            done.acquire()  # g writes into the caller's arrays: wait for it even if f raised
    if took:
        return first, g()
    ok, second = box
    if not ok:
        raise second
    return first, second


def _share_rows(pair, block, rows: int, step: int) -> None:
    """``block(r)`` for the first row r of each block of ``step`` of the
    ``rows`` rows, run by both sides of ``pair`` (``_both`` or ``_in_turn``):
    each side takes the next block no side has taken, so a side that runs
    slower takes fewer."""
    if rows <= step:
        block(0)
        return
    firsts = iter(range(0, rows, step))  # next() is one C call under the GIL

    def take():
        for r in firsts:
            block(r)

    pair(take, take)


class GradSlot:
    """The gradient half of a tensor: its ``grad`` and ``requires_grad``. A
    tape record holds its output's slot and a backward rule the slots of its
    inputs, never their tensors, so neither keeps a data array alive."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool = True):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad


class Tensor:
    """A real-valued n-dimensional array. One that requires a gradient has a
    ``GradSlot`` that holds it; any other, such as an op output that is not
    recorded, has none (``slot`` is None) and reads as ``grad`` None."""

    __slots__ = ("data", "slot", "offsets")

    def __init__(self, data, requires_grad: bool = False, offsets: tuple[int, ...] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = GradSlot() if requires_grad else None
        self.offsets = offsets

    @property
    def requires_grad(self) -> bool:
        return self.slot is not None and self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        if self.slot is None:
            self.slot = GradSlot(False)
        self.slot.requires_grad = bool(value)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self.slot is None:
            self.slot = GradSlot(False)
        self.slot.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor. Freezing it is ``requires_grad = False``:
    backward then passes it by, and it gets no gradient (``grad is None``)."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops: (output's ``GradSlot``, backward rule,
    op name). A record holds no tensor, so an output's array lives only
    while a rule reads it or a caller holds it.

    ``backward`` turns each record into the tombstone (None, None, op name)
    once its rule has run, so after backward the tape keeps its length and
    names and holds no array."""

    __slots__ = ("records", "consumed")

    def __init__(self):
        self.records: list[tuple[GradSlot | None, object, str]] = []
        self.consumed = False

    def __len__(self) -> int:
        return len(self.records)


_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _tape


def reset_tape() -> None:
    """Discard all recorded ops and re-arm the tape for a fresh backward."""
    global _tape
    _tape = Tape()


def grad_enabled() -> bool:
    """Whether ops record to the tape (False inside ``no_grad``)."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values still computed)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


def _taped(inputs) -> bool:
    """Whether an op over ``inputs`` records: gradients are enabled and an
    input requires one."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _record(name: str, out_data: np.ndarray, inputs, backward_fn, offsets=None) -> Tensor:
    """The output tensor of an op; when ``_taped(inputs)``, it gets a
    ``GradSlot``, which the tape records with the rule. An output that is
    not recorded gets no slot."""
    _check_finite(out_data, name)
    out = Tensor(out_data, offsets=offsets)
    if _taped(inputs):
        out.slot = GradSlot()
        _tape.records.append((out.slot, backward_fn, name))
    return out


def _accumulate(slot, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` to the gradient of ``slot`` (a ``GradSlot``, a tensor or
    None) if it requires one. An ``owned`` ``g`` is a fresh row-major array
    that the rule made and nothing else holds: a first write adopts it."""
    if slot is None or not slot.requires_grad:
        return
    if slot.grad is None:
        # the bits of zeros + g, -0.0 turned to +0.0 included, without the zero
        # fill; row-major whatever g's layout, as the operand's array is
        slot.grad = np.add(g, 0.0, out=g if owned else np.empty(g.shape))
    else:
        slot.grad += g


def _spans(offsets: tuple[int, ...] | None, rows: int) -> list[tuple[int, int]]:
    """(first row, end) of each segment of ``rows`` rows packed at
    ``offsets``; one segment when ``offsets`` is None."""
    offsets = offsets or (0, rows)
    return list(zip(offsets, offsets[1:]))


def segments(x: Tensor) -> list[tuple[int, int]]:
    """(first row, end) of each segment of ``x``; one for an unpacked tensor."""
    return _spans(x.offsets, len(x.data))


def _sum_segments(offsets: tuple[int, ...] | None, rows: int, term) -> np.ndarray:
    """``term(rows)`` summed over the row slices of the segments of ``rows``
    rows packed at ``offsets``, in reverse segment order."""
    total = None
    for start, stop in reversed(_spans(offsets, rows)):
        t = term(slice(start, stop))
        if total is None:
            total = t
        else:
            total += t
    return total


def backward(loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    The tape may be consumed exactly once; run ``reset_tape()`` before the
    next forward/backward cycle. Each record is released as soon as its rule
    has run (see ``Tape``), and with it the arrays the rule read: a tensor
    the caller still holds keeps its ``grad``, and the rest of the graph is
    freed on the way back.
    """
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        raise ShapeError("backward requires a scalar (shape ()) Tensor loss")
    if not _tape.records:
        raise TapeError("backward called on an empty tape")
    if _tape.consumed:
        raise TapeError("tape already consumed; call reset_tape() first")
    if not loss.requires_grad:
        raise TapeError("loss is not connected to the tape")
    _tape.consumed = True
    loss.grad = np.ones((), dtype=np.float64)
    records = _tape.records
    for i in range(len(records) - 1, -1, -1):
        slot, fn, name = records[i]
        records[i] = (None, None, name)
        if slot.grad is not None:
            fn(slot.grad)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _segment_products(offsets, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right``, as one product over the rows of each segment of
    ``left``, packed at ``offsets``. One product over all rows can round an
    example's rows otherwise than its own product: a one-row product is a
    matrix-vector product, and under OpenBLAS's kernels a product split by
    rows keeps its bits only when its output has a multiple of 8 columns."""
    if offsets is None:
        return left @ right
    out = np.empty((len(left), right.shape[1]))
    for first, stop in _spans(offsets, len(left)):
        np.matmul(left[first:stop], right, out=out[first:stop])
    return out


def matmul(a: Tensor, b: Tensor, residual: Tensor | None = None) -> Tensor:
    """Matrix product of two 2-D tensors, plus ``residual`` when one is
    given; it keeps the offsets of ``a``, and every product it takes runs
    segment by segment.

    ``residual`` must have the output's shape and ``a``'s offsets. It is
    added into the product's own buffer, and its gradient is the output's,
    passed on first, as the rule of an add after the product would: so the
    op has the bits of that add over the product, forward and backward."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = _segment_products(a.offsets, a.data, b.data)
    inputs, sr = (a, b), None
    if residual is not None:
        if residual.shape != out.shape or residual.offsets != a.offsets:
            raise ShapeError(
                f"matmul residual must have shape {out.shape} and offsets {a.offsets},"
                f" got {residual.shape} and {residual.offsets}"
            )
        out += residual.data
        inputs, sr = (a, b, residual), residual.slot

    def _bw(g, ad=a.data, bd=b.data, sa=a.slot, sb=b.slot, sr=sr, offsets=a.offsets):
        _accumulate(sr, g)
        _accumulate(sa, _segment_products(offsets, g, bd.T), owned=True)
        _accumulate(sb, _sum_segments(offsets, len(g), lambda r: ad[r].T @ g[r]))

    return _record("matmul", out, inputs, _bw, a.offsets)


def pack(parts: list[Tensor]) -> Tensor:
    """The rows of the 2-D ``parts`` stacked, part i as segment i. One part
    is returned as it is: an unpacked tensor is one segment."""
    if not parts or any(p.data.ndim != 2 or len(p) < 1 or p.offsets for p in parts):
        raise ShapeError("pack needs one or more unpacked 2-D parts with rows")
    if len(parts) == 1:
        return parts[0]
    offsets = (0, *np.cumsum([len(p) for p in parts]).tolist())
    out = np.concatenate([p.data for p in parts])

    def _bw(g, slots=tuple(p.slot for p in parts)):
        for sp, start, stop in zip(slots, offsets, offsets[1:]):
            _accumulate(sp, g[start:stop])

    return _record("pack", out, tuple(parts), _bw, offsets)


def add_positions(x: Tensor, table: Tensor, start: int = 0) -> Tensor:
    """``x`` plus, on each of its segments, rows ``start`` onward of the
    positional ``table``, one row per row of the segment."""
    spans = segments(x)
    end = start + max(stop - first for first, stop in spans)
    if start < 0 or end > len(table):
        raise ShapeError(f"sequence length {end} exceeds the {len(table)} rows of the position table")
    out = np.empty_like(x.data)
    for first, stop in spans:
        np.add(x.data[first:stop], table.data[start : start + stop - first], out=out[first:stop])

    def _bw(g, sx=x.slot, st=table.slot, table_shape=table.data.shape):
        _accumulate(sx, g)
        gt = np.zeros(table_shape)
        for first, stop in reversed(spans):
            gt[start : start + stop - first] += g[first:stop]
        _accumulate(st, gt)

    return _record("add_positions", out, (x, table), _bw, x.offsets)


# ---------------------------------------------------------------------------
# block candidates: the block means of every (block size b, offset o) stream
# stacked in one (P, d) table, stream after stream in the order of the ops'
# ``keys``; ``stream_spans`` gives each stream's rows. ``_realign`` spreads
# blocks over the positions they cover and ``_block_sums``, its adjoint, sums
# them back. The ops work stream by stream, backward in reverse stream order,
# with reshape-sums and one matmul per stream: a stacked matmul or a
# cumulative-sum mean rounds differently.
# ---------------------------------------------------------------------------


def stream_spans(keys, n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(b, o, start, stop) of each (b, o) stream of ``keys`` for length n:
    its ceil(n/b) blocks fill rows start:stop of the table. Each block op's
    rule holds them, so they come as a tuple, not a list with spare slots."""
    spans, start = [], 0
    for b, o in keys:
        stop = start + -(-n // b)
        spans.append((b, o, start, stop))
        start = stop
    return tuple(spans)


def _realign(blocks: np.ndarray, b: int, n: int) -> np.ndarray:
    """Each block row repeated b times, cut back to the first n rows."""
    return np.repeat(blocks, b, axis=0)[:n]


def _block_sums(g: np.ndarray, b: int, blocks: int) -> np.ndarray:
    """Adjoint of ``_realign``: each group of b rows of g summed, g zero-filled
    to blocks*b rows when it falls short; whole blocks are summed in place."""
    if g.shape[0] < blocks * b:
        g = np.concatenate([g, np.zeros((blocks * b - g.shape[0],) + g.shape[1:])])
    return g.reshape((blocks, b) + g.shape[1:]).sum(axis=1)


def block_means(x: Tensor, keys, n: int | None = None) -> Tensor:
    """(P, d) table over rows 0..n of x, all of them by default: per stream,
    the rows after the first o, zero-filled to a multiple of b, averaged over
    each block of b rows. Rows n and beyond get a zero gradient. The one
    stream (r, 0) over whole blocks, n a multiple of r, is the mean pool of
    stride r that downsamples GBST's latent."""
    rows, d = x.shape
    n = rows if n is None else n
    if not 0 <= n <= rows:
        raise ShapeError(f"block_means over {n} rows of a tensor of {rows}")
    spans = stream_spans(keys, n)
    out = np.empty((spans[-1][3], d))
    for b, o, start, stop in spans:  # numpy's mean is this sum divided by b, bit for bit
        out[start:stop] = _block_sums(x.data[o:n], b, stop - start) / b

    def _bw(g, sx=x.slot):
        gx = np.zeros((rows, d))
        for b, o, start, stop in reversed(spans):
            gx[o:n] += _realign(g[start:stop] / b, b, max(n - o, 0))
        _accumulate(sx, gx)

    return _record("block_means", out, (x,), _bw)


def block_scores(table: Tensor, w: Tensor, keys, n: int) -> tuple[np.ndarray, Tensor]:
    """The (L, C) raw scores, an untaped array: every block mean scored by
    the (d, 1) map ``w``, at each of the L positions its block covers; and
    the (L, C) weights, their softmax across streams, max-subtracted for
    stability, which the op records."""
    if w.shape != (table.shape[1], 1):
        raise ShapeError(f"scorer must have shape ({table.shape[1]}, 1), got {w.shape}")
    spans = stream_spans(keys, n)
    if table.shape != (spans[-1][3], table.shape[1]):
        raise ShapeError(f"table of shape {table.shape} does not fit the streams {keys} at length {n}")
    raw = np.empty((n, len(spans)))
    for c, (b, o, start, stop) in enumerate(spans):
        raw[:, c] = _realign(table.data[start:stop] @ w.data, b, n)[:, 0]
    _check_finite(raw, "block_scores")
    e = np.exp(raw - raw.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def _bw(g, td=table.data, wd=w.data, st=table.slot, sw=w.slot):
        g = y * (g - (g * y).sum(axis=-1, keepdims=True))  # through the softmax
        gt = np.empty_like(td)
        for c in reversed(range(len(spans))):
            b, o, start, stop = spans[c]
            gs = _block_sums(g[:, c : c + 1], b, stop - start)
            gt[start:stop] = gs @ wd.T
            # one term per stream: w.grad may already hold other examples' terms
            _accumulate(sw, td[start:stop].T @ gs)
        _accumulate(st, gt)

    return raw, _record("block_scores", y, (table, w), _bw)


def block_mix(weights: Tensor, table: Tensor, keys) -> Tensor:
    """(L, d) mixture of the streams' block means at each position under the
    (L, C) ``weights``."""
    n, c_count = weights.shape
    spans = stream_spans(keys, n)
    if c_count != len(spans) or table.shape != (spans[-1][3], table.shape[-1]):
        raise ShapeError(f"weights {weights.shape} and table {table.shape} do not fit the streams {keys}")
    out = None
    for c, (b, o, start, stop) in enumerate(spans):
        term = _realign(table.data[start:stop], b, n) * weights.data[:, c : c + 1]
        out = term if out is None else out + term

    def _bw(g, w=weights.data, td=table.data, sw=weights.slot, st=table.slot):
        gw = np.empty_like(w)
        gt = np.empty_like(td)
        for c, (b, o, start, stop) in enumerate(spans):
            gw[:, c] = (g * _realign(td[start:stop], b, n)).sum(axis=1)
            gt[start:stop] = _block_sums(g * w[:, c : c + 1], b, stop - start)
        _accumulate(sw, gw)
        _accumulate(st, gt)

    return _record("block_mix", out, (weights, table), _bw)


def conv1d_same(x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Channel-mixing 1-D convolution with SAME zero padding (output length
    equals input length). ``filters`` has shape (k, d_in, d_out), k odd."""
    if filters.data.ndim != 3:
        raise ShapeError(f"filters must be (k, d_in, d_out), got {filters.shape}")
    k, d_in, d_out = filters.shape
    if k % 2 == 0:
        raise ConfigError(f"conv kernel size must be odd, got {k}")
    n, d = x.shape
    if d != d_in:
        raise ShapeError(f"input channels {d} != filter channels {d_in}")
    if bias.shape != (d_out,):
        raise ShapeError(f"bias must have shape ({d_out},), got {bias.shape}")
    pad = (k - 1) // 2
    xp = np.zeros((n + k - 1, d_in))
    xp[pad : pad + n] = x.data
    out = np.tile(bias.data, (n, 1))
    for t in range(k):
        out += xp[t : t + n] @ filters.data[t]

    def _bw(g, fd=filters.data, sx=x.slot, sf=filters.slot, sb=bias.slot):
        _accumulate(sb, g.sum(axis=0))
        gf = np.zeros_like(fd)
        gxp = np.zeros_like(xp)
        for t in range(k):
            gf[t] = xp[t : t + n].T @ g
            gxp[t : t + n] += g @ fd[t].T
        _accumulate(sf, gf)
        _accumulate(sx, gxp[pad : pad + n].copy())

    return _record("conv1d_same", out, (x, filters, bias), _bw)


# elements of float64 that attention holds at a time, 2**16 * 8 B = 512 KB:
# a head group's scores hold at most this many, or one head's if those hold
# more, and each softmax pass walks row blocks of about this many, which
# stay in L2
BLOCK = 1 << 16


def _heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """The operand checks of both attention ops. ``q`` is (n, heads*hd) and
    ``k``/``v`` are (m, heads*hd); head i owns columns [i*hd, (i+1)*hd).
    Returns views of them split into heads: (h, n, hd) queries, (h, hd, m)
    keys and (h, m, hd) values."""
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention expects 2-D q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    n, width = q.shape
    m = k.shape[0]
    if heads < 1 or width % heads:
        raise ShapeError(f"width {width} does not split into {heads} heads")
    if k.shape != (m, width) or v.shape != (m, width):
        raise ShapeError(f"k and v must be ({m}, {width}), got {k.shape} and {v.shape}")
    hd = width // heads
    return (
        q.reshape(n, heads, hd).transpose(1, 0, 2),
        k.reshape(m, heads, hd).transpose(1, 2, 0),
        v.reshape(m, heads, hd).transpose(1, 0, 2),
    )


def _group(heads: int, n: int, m: int) -> int:
    """Heads per group for (n, m) scores: as many as keep a group's (g, n, m)
    scores within ``BLOCK`` elements, and at least one."""
    return max(1, min(heads, BLOCK // (n * m)))


def _probs(qh, kt, scale, mask, stats=None, saved=False, out=None, pair=_in_turn):
    """The (g, n, m) probabilities of a group of heads: the scores, one
    ``np.matmul`` batched over the group, then scaled, masked and softmaxed
    in place in row blocks of about ``BLOCK`` elements. The product stays
    whole: one over a block of rows could round differently, by the BLAS
    kernel chosen. Both sides of ``pair`` walk the blocks: this thread
    alone, or it and the lane at once.

    ``stats`` is an optional (2, g, n, 1) array that takes each row's max
    and sum of exponentials, or, when ``saved``, gives them: a recompute
    then skips those two reductions and divides by the same numbers, bit for
    bit. ``out`` is an optional (g, n, m) buffer to compute in.
    """
    p = np.matmul(qh, kt, out=out)
    step = max(1, BLOCK // (p.shape[0] * p.shape[2]))

    def block(r):
        s = p[:, r : r + step]
        if scale != 1.0:  # calibration's unit scale: x * 1.0 is x, bit for bit
            s *= scale
        if mask is not None:
            s += mask[r : r + step]
        if saved:
            top, total = stats[:, :, r : r + step]
        else:
            top = s.max(axis=-1, keepdims=True)
        s -= top
        np.exp(s, out=s)
        if not saved:
            total = s.sum(axis=-1, keepdims=True)
            if stats is not None:
                stats[:, :, r : r + step] = top, total
        s /= total

    _share_rows(pair, block, p.shape[1], step)
    return p


def _attend(qh, kt, vh, scale, mask, stats=None):
    """The forward of both attention ops, over the operands ``_heads``
    splits. Returns the (n, h*hd) head outputs side by side and keeps no
    probabilities; ``stats``, an optional (2, h, n, 1) array, takes each
    row's max and sum of exponentials (see ``_probs``).

    It walks the heads in groups of ``_group`` heads, so it holds one
    group's probabilities at a time. Each product is one ``np.matmul``
    batched over a group, which numpy runs as one BLAS call per head, with
    the bits of a 2-D matmul per head. A decode step or a desk-sized
    segment is one group, and runs on the whole operands. When one head's
    scores hold more than ``BLOCK`` elements, a group is one head, and the
    groups run two at a time, one of them on the lane, so two (n, m)
    buffers are held; a last group that runs alone shares its softmax
    blocks with the lane.
    """
    heads, n, hd = qh.shape
    m = kt.shape[2]
    if m < 1:
        raise ShapeError("attention needs at least one key row")
    if mask is not None and np.shape(mask) != (n, m):
        raise ShapeError(f"mask must have shape ({n}, {m}), got {np.shape(mask)}")
    if heads * n * m <= BLOCK:  # one group, as _group gives, on the whole operands
        out = np.matmul(_probs(qh, kt, scale, mask, stats), vh)
    else:
        g = _group(heads, n, m)
        out = np.empty((heads, n, hd))

        def run(h, pair=_in_turn):
            hs = slice(h, h + g)
            part = None if stats is None else stats[:, hs]
            np.matmul(_probs(qh[hs], kt[hs], scale, mask, part, pair=pair), vh[hs], out=out[hs])

        if n * m <= BLOCK:
            for h in range(0, heads, g):
                run(h)
        else:  # g is 1
            for h in range(1, heads, 2):
                _both(lambda: run(h - 1), lambda: run(h))
            if heads % 2:
                run(heads - 1, _both)
    return out.transpose(1, 0, 2).reshape(n, heads * hd)


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    mask: np.ndarray | None = None,
    scale: float | None = None,
) -> Tensor:
    """Scaled dot-product attention over ``heads`` column groups, as one op.

    ``q`` is (n, heads*hd) and ``k``/``v`` are (m, heads*hd); head i owns
    columns [i*hd, (i+1)*hd). ``mask`` is an optional constant additive
    (n, m) array. ``scale`` multiplies the scores and defaults to
    1/sqrt(hd). Returns the (n, heads*hd) head outputs side by side. GBST
    score calibration, softmax(P P^T) P, is the one-head, unit-scale case
    with q = k = v = P.

    Packed operands attend segment by segment: segment i of ``q`` attends to
    segment i of ``k`` and ``v``, which share their offsets, under the
    top-left corner of ``mask`` that its rows and keys span; the mask then
    covers the longest segments. The output keeps ``q``'s offsets.

    The forward is ``_attend`` on contiguous copies of the ``_heads`` views:
    the operands of the per-head chain of slice, transpose, matmul, scale,
    mask, softmax and concat ops, which the tests keep as the reference. So
    this op is bit-identical to that chain, forward and backward, segment by
    segment. The record saves those copies, each segment's mask and each
    row's max and sum of exponentials (2·h·n floats), and no probabilities.
    The forward runs a segment's head groups two at a time, one on the lane,
    when one head's scores hold more than ``BLOCK`` elements (a group is
    then one head), so it holds two (n, m) buffers. The backward walks the
    forward's head groups: it recomputes each group's probabilities with
    ``_probs``, then runs each of the four products as one ``np.matmul``
    over the group and the softmax backward in row blocks; for such long
    heads the two products that read the same operands run at once, one on
    the lane, and each softmax pass shares its blocks with the lane. One
    (probabilities, score gradient) scratch pair serves every group of every
    segment, so the backward holds two groups' (g, n, m) buffers, never all
    heads' probabilities.
    """
    q_spans, kv_spans = segments(q), segments(k)
    if k.offsets != v.offsets or len(k.data) != len(v.data) or len(q_spans) != len(kv_spans):
        raise ShapeError("k and v must share their rows and segments, one for each segment of q")
    longest = tuple(max(stop - start for start, stop in spans) for spans in (q_spans, kv_spans))
    if mask is not None and np.shape(mask) != longest:
        raise ShapeError(f"mask must have shape {longest}, got {np.shape(mask)}")
    saved, outs = [], []  # each segment's head-split operands, mask and row stats
    for (q0, q1), (k0, k1) in zip(q_spans, kv_spans):
        qh, kt, vh = (a.copy() for a in _heads(q.data[q0:q1], k.data[k0:k1], v.data[k0:k1], heads))
        if scale is None:
            scale = 1.0 / math.sqrt(qh.shape[2])
        seg_mask = None if mask is None else mask[: q1 - q0, : k1 - k0]
        stats = np.empty((2, heads, q1 - q0, 1))
        outs.append(_attend(qh, kt, vh, scale, seg_mask, stats))
        saved.append((qh, kt, vh, seg_mask, stats))
    (n, width), m = q.shape, k.shape[0]
    hd = width // heads

    def _bw(g, sq=q.slot, sk=k.slot, sv=v.slot):
        gq = np.empty((n, heads, hd))
        gk = np.empty((m, heads, hd))
        gv = np.empty((m, heads, hd))
        shapes = [(q1 - q0, k1 - k0) for (q0, q1), (k0, k1) in zip(q_spans, kv_spans)]
        scratch = np.empty((2, max(_group(heads, r, c) * r * c for r, c in shapes)))
        for (q0, q1), (k0, k1), (rows, keys), (qh, kt, vh, seg_mask, stats) in zip(
            q_spans, kv_spans, shapes, saved
        ):
            go = g[q0:q1].reshape(rows, heads, hd).transpose(1, 0, 2).copy()
            per = _group(heads, rows, keys)
            # one head a group over several row blocks: the lane shares it
            pair = _both if rows * keys > BLOCK else _in_turn
            for h in range(0, heads, per):
                hs = slice(h, min(h + per, heads))
                count = hs.stop - h
                # the group's probabilities and score gradient, in the scratch
                p, s = scratch[:, : count * rows * keys].reshape(2, count, rows, keys)
                _probs(qh[hs], kt[hs], scale, seg_mask, stats[:, hs], saved=True, out=p, pair=pair)
                _, gvh = pair(
                    lambda: np.matmul(go[hs], vh[hs].transpose(0, 2, 1), out=s),
                    lambda: np.matmul(p.transpose(0, 2, 1), go[hs]),
                )
                gv[k0:k1, hs] = gvh.transpose(1, 0, 2)
                del gvh
                # a block's (sb * pb) temporary holds BLOCK/4 elements on this
                # thread alone, a quarter of what a group may hold, and BLOCK/2
                # on each side of the lane, where smaller blocks of a long
                # head cost time; the blocks' size changes no bit of these
                # row-wise passes
                step = max(1, BLOCK // ((2 if pair is _both else 4) * count * keys))

                def block(r):
                    sb, pb = s[:, r : r + step], p[:, r : r + step]
                    sb -= (sb * pb).sum(axis=-1, keepdims=True)
                    sb *= pb
                    if scale != 1.0:
                        sb *= scale

                _share_rows(pair, block, rows, step)
                gqh, gkh = pair(
                    lambda: np.matmul(s, kt[hs].transpose(0, 2, 1)),
                    lambda: np.matmul(qh[hs].transpose(0, 2, 1), s),
                )
                gq[q0:q1, hs] = gqh.transpose(1, 0, 2)
                gk[k0:k1, hs] = gkh.transpose(2, 0, 1)
        # the chain's order (v, then q, then k's transpose): it keeps the bits
        # of a gradient when q, k and v are one tensor, as in calibration
        _accumulate(sv, gv.reshape(m, width), owned=True)
        _accumulate(sq, gq.reshape(n, width), owned=True)
        _accumulate(sk, gk.reshape(m, width), owned=True)

    out = outs[0] if len(outs) == 1 else np.concatenate(outs)
    return _record("multi_head_attention", out, (q, k, v), _bw, q.offsets)


def cached_attention(
    q: Tensor, k: np.ndarray, v: np.ndarray, heads: int, mask: np.ndarray | None = None
) -> Tensor:
    """``multi_head_attention`` at its default scale, for incremental
    decoding: ``k`` and ``v`` are arrays of key and value rows, such as a
    ``KVCache`` holds. It records nothing and refuses to run with gradients
    on. It runs ``_attend`` on the ``_heads`` views without copying them, so
    it matches ``multi_head_attention`` to 1e-10, not bit for bit: BLAS may
    round a product over a strided view differently from one over a
    contiguous copy. It keeps no row statistics, and a decode step's scores
    fit in one head group, so it runs the products over all heads at once.
    """
    if _grad_enabled:
        raise TapeError("cached_attention records no gradient; call it under no_grad()")
    qh, kt, vh = _heads(q.data, k, v, heads)
    out = _attend(qh, kt, vh, 1.0 / math.sqrt(qh.shape[2]), mask)
    return _record("cached_attention", out, (q,), None)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Select rows of ``table`` by integer id; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("ids must be a flat sequence")
    vocab = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ValueError(f"id out of range 0..{vocab - 1}")
    out = table.data[idx].copy()

    def _bw(g, st=table.slot, table_shape=table.data.shape):
        gt = np.zeros(table_shape)
        np.add.at(gt, idx, g)
        _accumulate(st, gt)

    return _record("embedding_gather", out, (table,), _bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance (with 1e-6 added to the
    variance), then scale and shift. It keeps the offsets of ``x``."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm gain/bias must match the last axis")
    # np.add.reduce / d has the bits of ndarray.mean, without its Python wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def _bw(g, gd=gain.data, sx=x.slot, sg=gain.slot, sb=bias.slot, offsets=x.offsets):
        rows = len(g)
        _accumulate(sg, _sum_segments(offsets, rows, lambda r: (g[r] * xhat[r]).sum(axis=0)))
        _accumulate(sb, _sum_segments(offsets, rows, lambda r: g[r].sum(axis=0)))
        dxhat = g * gd
        term = dxhat - dxhat.mean(axis=-1, keepdims=True)
        term -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(sx, inv * term, owned=True)

    return _record("layer_norm", out, (x, gain, bias), _bw, x.offsets)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, residual: Tensor) -> Tensor:
    """``residual + (gelu(x @ w1 + b1) @ w2 + b2)``, a residual feed-forward
    block, as one op: the numpy operations of the chain of ``matmul``,
    ``add``, ``gelu``, ``matmul``, ``add`` and ``add`` ops, in its order, so
    it is bit-identical to that chain, the tests' reference, forward and
    backward. Its products run segment by segment, and it keeps the offsets
    of ``x``, which must be those of ``residual``.

    The record saves ``x``, the pre-activation ``h`` and the GELU ``cdf``,
    not the GELU output ``h * cdf``, which the backward computes again for
    ``w2``'s gradient and drops. Untaped, ``h`` and ``cdf`` die before the
    second product."""
    if x.data.ndim != 2 or w2.data.ndim != 2 or residual.offsets != x.offsets:
        raise ShapeError("ffn needs a 2-D x and w2, and the offsets of x on residual")
    (n, d), (f, d_out) = x.shape, w2.shape
    if (w1.shape, b1.shape, b2.shape, residual.shape) != ((d, f), (f,), (d_out,), (n, d_out)):
        raise ShapeError(
            f"ffn operands do not fit: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape},"
            f" b2 {b2.shape}, residual {residual.shape}"
        )
    offsets = x.offsets
    inputs = (x, w1, b1, w2, b2, residual)
    h = _segment_products(offsets, x.data, w1.data)
    h += b1.data
    cdf = h / math.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if _taped(inputs):
        act = h * cdf
    else:  # no rule reads h or cdf
        act, h, cdf = np.multiply(h, cdf, out=h), None, None
    _check_finite(act, "ffn")
    out = _segment_products(offsets, act, w2.data)
    out += b2.data
    out += residual.data

    def _bw(g, xd=x.data, w1d=w1.data, w2d=w2.data, h=h, cdf=cdf, offsets=offsets,
            slots=tuple(t.slot for t in inputs)):
        sx, sw1, sb1, sw2, sb2, sr = slots
        rows = len(g)
        _accumulate(sr, g)
        _accumulate(sb2, _sum_segments(offsets, rows, lambda r: g[r].sum(axis=0)))
        act = h * cdf
        _accumulate(sw2, _sum_segments(offsets, rows, lambda r: act[r].T @ g[r]))
        del act
        # GELU's derivative cdf + h * pdf(h) into h's own buffer, which the
        # rule, run once, reads no more: three wide arrays at a time
        t = h * -0.5
        t *= h
        np.exp(t, out=t)
        t /= _SQRT_2PI
        h *= t
        del t
        h += cdf
        gh = _segment_products(offsets, g, w2d.T)
        gh *= h
        _accumulate(sb1, _sum_segments(offsets, rows, lambda r: gh[r].sum(axis=0)))
        _accumulate(sx, _segment_products(offsets, gh, w1d.T), owned=True)
        _accumulate(sw1, _sum_segments(offsets, rows, lambda r: xd[r].T @ gh[r]))

    return _record("ffn", out, inputs, _bw, offsets)


def cross_entropy_with_logits(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Token-level cross entropy in nats against integer targets.

    ``reduction`` is "mean" (per-token average) or "sum". Packed logits are
    summed segment by segment, and the sums added in segment order. The mean
    multiplies that total by 1/n, the factor its backward scales by, so it
    has the bits of the sum times the constant 1/n, forward and backward.
    """
    ids = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError("logits must be (tokens, vocab)")
    n, vocab = logits.shape
    if ids.shape != (n,):
        raise ShapeError(f"targets must have shape ({n},)")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(f"target id out of range 0..{vocab - 1}")
    if reduction not in ("mean", "sum"):
        raise ConfigError(f"unknown reduction {reduction!r}")
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    norm = e.sum(axis=-1, keepdims=True)
    lse = np.log(norm)[:, 0] + m[:, 0]
    losses = lse - logits.data[np.arange(n), ids]
    total = None
    for start, stop in segments(logits):
        part = losses[start:stop].sum()
        total = part if total is None else total + part
    out = total * (1.0 / n) if reduction == "mean" else total

    def _bw(g, sl=logits.slot):
        # the softmax less the one-hot targets, in e's own buffer, which the
        # rule, run once, reads no more
        p = np.divide(e, norm, out=e)
        p[np.arange(n), ids] -= 1.0
        p *= float(g) / n if reduction == "mean" else float(g)
        _accumulate(sl, p, owned=True)

    return _record("cross_entropy_with_logits", np.asarray(out), (logits,), _bw)
