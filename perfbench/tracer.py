"""Per-layer spans around the public functions of each bdts module.

The benchmark installs the wrappers from its own files, so the program is
traced exactly as shipped.  Each call into a wrapped function opens a span
(name, start, end, parent); spans of one op share the op's id.  Per name the
tracer keeps calls, inclusive busy time, self time (busy time minus wrapped
children), bytes in, and outcome counts such as failed proof checks.

Functions imported by name into other modules (``mtree`` into ``sharding``,
``actors``, ``bench``...) are wrapped in every namespace that binds them;
methods are wrapped on their class.  Calls from threads other than the one
that installed the wrappers (the bench's ``_serve``/``_fetch``) pass through
untraced and never touch the span stack.
"""
from __future__ import annotations

import inspect
import sys
import threading
from time import perf_counter_ns

# every traced module must be loaded before the bindings are looked up
from bdts import actors, bench, contracts, crypto, game, ledger, merkle, sharding  # noqa: F401
from bdts.errors import DecryptError, InsufficientTokens

MIB = 1 << 20


def _second_len(args):
    return len(args[1])


def _leaves_len(args):
    return sum(map(len, args[0]))


def _if(cond, key):
    return lambda result, exc: {key: 1} if cond(result, exc) else None


def _wire(report, exc):
    if exc is not None:
        return None
    return {
        "wire_ns": sum(report.download_times) * 1e9,
        "wire_bytes": report.config.size_bytes * len(report.download_times),
    }


# (module, class or None, function, stats reported, bytes-in fn, outcome fn)
# Stats: calls, ms (inclusive), self_ms, mib_s (bytes in / busy time), and
# outcome counts named by the outcome fn.  An empty stat list is traced for
# the span tree and the derived metrics only.
SPECS = [
    ("merkle", None, "mtree", ("calls", "ms", "mib_s"), _leaves_len, None),
    ("merkle", None, "mproof", ("calls", "ms"), None, None),
    ("merkle", None, "mvrfy", ("calls", "ms", "false"), None,
     _if(lambda r, e: r is False, "false")),
    ("crypto", None, "sym_encrypt", ("calls", "ms", "mib_s"), _second_len, None),
    ("crypto", None, "sym_decrypt", ("calls", "ms", "mib_s", "failed"), _second_len,
     _if(lambda r, e: isinstance(e, DecryptError), "failed")),
    ("crypto", None, "derive_keys", ("calls", "ms"), None, None),
    ("crypto", None, "pk_keygen", ("calls", "ms"), None, None),
    ("crypto", None, "pk_encrypt", ("calls", "ms"), None, None),
    ("crypto", None, "pk_decrypt", ("calls", "ms", "failed"), None,
     _if(lambda r, e: isinstance(e, DecryptError), "failed")),
    ("crypto", None, "public_key_of", ("calls", "ms"), None, None),
    ("sharding", None, "shard_encrypt", ("calls", "self_ms"), None, None),
    ("sharding", None, "provider_encrypt", ("calls", "self_ms"), None, None),
    ("sharding", None, "reassemble", ("calls", "ms"), None, None),
    ("ledger", "Ledger", "mine_block", ("calls", "ms"), None, None),
    ("ledger", "Ledger", "transfer", ("calls", "rejected"), None,
     _if(lambda r, e: r is False, "rejected")),
    ("ledger", "Ledger", "log_event", (), None, None),
    *[
        ("contracts", "ContractSystem", fn, ("calls", "ms"), None, None)
        for fn in (
            "ssmc_register_seller", "ssmc_expose", "ssmc_confirm_provider",
            "match_products", "scmc_select", "cpc_open", "cpc_post_key", "cpc_settle",
        )
    ],
    ("contracts", "ContractSystem", "scmc_place_order", ("calls", "ms", "discarded"), None,
     _if(lambda r, e: isinstance(e, InsufficientTokens), "discarded")),
    ("contracts", "ContractSystem", "cpc_appeal", ("calls", "ms", "upheld"), None,
     _if(lambda r, e: r == contracts.UPHELD, "upheld")),
    ("actors", None, "run_scenario", ("calls", "self_ms"), None, None),
    ("game", None, "crosscheck_simulation", ("calls", "self_ms"), None, None),
    ("game", None, "backward_induction", ("calls", "ms"), None, None),
    ("game", None, "nash_equilibria", ("calls", "ms"), None, None),
    ("bench", None, "bench_download", ("self_ms",), None, _wire),
    ("bench", None, "synthetic_data", ("ms",), None, None),
]

UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "mib_s": "MiB/s"}


class Stat:
    __slots__ = ("calls", "ns", "self_ns", "bytes", "outcomes")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.bytes = 0
        self.outcomes: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self.stats = {f"{mod}.{fn}": Stat() for mod, _, fn, *_ in SPECS}
        self.top_ns = 0  # busy time of outermost spans: the op's wrapped share
        self.spans: list[tuple] | None = None  # kept for one op when asked
        self._stack: list[list] = []
        self._op = 0
        self._next_id = 0
        self._owner = threading.get_ident()
        # (namespace, attribute, binding, wrapper); built once, so install
        # and uninstall between ops only swap attributes
        self._bindings = [
            (owner, attr, owner.__dict__[attr], self._wrap(owner.__dict__[attr], spec))
            for owner, attr, spec in self._find_targets()
        ]

    @staticmethod
    def _find_targets():
        """(namespace, attribute, spec) for every binding of a traced function.

        Matches through ``__wrapped__``, so a binding the benchmark itself
        wraps (``functools.wraps``) is traced on top of that wrapper."""
        modules = [m for name, m in sys.modules.items() if name.startswith("bdts.")]
        targets = []
        for spec in SPECS:
            mod, cls, fn = spec[:3]
            home = sys.modules[f"bdts.{mod}"]
            if cls is not None:
                targets.append((getattr(home, cls), fn, spec))
                continue
            original = inspect.unwrap(getattr(home, fn))
            targets += [
                (m, fn, spec)
                for m in modules
                if inspect.unwrap(getattr(m, fn, None)) is original
            ]
        return targets

    def install(self, op_id: int) -> None:
        self._op = op_id
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, binding, _ in self._bindings:
            setattr(owner, attr, binding)

    def _wrap(self, fn, spec):
        mod, _, name, _, nbytes, outcome = spec
        full = f"{mod}.{name}"
        stat = self.stats[full]
        stack = self._stack
        owner = self._owner
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0, span_id]  # wrapped children's busy time, span id
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                stat.calls += 1
                stat.ns += took
                stat.self_ns += took - frame[0]
                if nbytes is not None:
                    stat.bytes += nbytes(args)
                if outcome is not None:
                    for key, value in (outcome(result, exc) or {}).items():
                        stat.outcomes[key] = stat.outcomes.get(key, 0) + value
                if stack:
                    stack[-1][0] += took
                else:
                    tracer.top_ns += took
                if tracer.spans is not None:
                    tracer.spans.append((tracer._op, span_id, parent, full, start, end))

        return traced

    def per_op(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced op: name -> (value, unit)."""
        out = {}
        for mod, _, fn, stats, _, _ in SPECS:
            st = self.stats[f"{mod}.{fn}"]
            for stat in stats:
                if stat == "calls":
                    value = st.calls / ops
                elif stat == "ms":
                    value = st.ns / 1e6 / ops
                elif stat == "self_ms":
                    value = st.self_ns / 1e6 / ops
                elif stat == "mib_s":
                    value = st.bytes / MIB / (st.ns / 1e9) if st.ns else 0.0
                else:
                    value = st.outcomes.get(stat, 0) / ops
                out[f"{mod}.{fn}.{stat}"] = (value, UNITS.get(stat, "count"))
        events = self.stats["ledger.transfer"].calls + self.stats["ledger.log_event"].calls
        out["ledger.events"] = (events / ops, "count")
        wire = self.stats["bench.bench_download"].outcomes
        wire_ns = wire.get("wire_ns", 0)
        wire_mib_s = wire.get("wire_bytes", 0) / MIB / (wire_ns / 1e9) if wire_ns else 0.0
        out["bench.wire_ms"] = (wire_ns / 1e6 / ops, "ms")
        out["bench.wire_mib_s"] = (wire_mib_s, "MiB/s")
        return out
