"""The incremental-compilation engine behind a :class:`Workspace`.

An :class:`EcoSession` is handed to :func:`repro.core.run_flow` through
``FlowOptions.eco`` and replaces two stages with memoizing engines:

* **lint** — the top-module RTL report is memoized on the module's
  content hash (the flow lints the top module; a clean top is a memo
  hit);
* **synthesis** — every unique module is synthesized once on its
  stripped form and the full mapped netlist is stitched from shards
  (:mod:`repro.inter.stitch`).

Both are deterministic-modulo-memo: a memo hit returns exactly what a
recompute would, so a warm session and a fresh cold one produce
byte-identical flow results.  The physical backend is the flow's own
(:func:`repro.pnr.implement` with the preset's placer), run in full on
the stitched netlist.  The session itself carries no design state
besides memos — the :class:`~repro.inter.workspace.Workspace` owns the
edit loop.
"""

from __future__ import annotations

import hashlib

from ..hdl.ir import Module
from ..hdl.verilog import count_rtl_lines
from ..lint import LintReport, Waiver, lint_module
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..pdk.cells import Library
from ..resil.cachekey import canonical
from ..synth.mapper import MapStats
from ..synth.opt import OptStats
from ..synth.sizing import SizingStats
from ..synth.synthesize import SynthesisResult
from ..synth.verify import check_equivalence
from .hashes import content_hash, module_table
from .stitch import Shard, instance_paths, shard_memo_key, stitch, \
    synthesize_shard


class EcoSession:
    """Memo stores plus the two stage engines of one edit session."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else get_metrics()
        self._shards: dict[str, Shard] = {}
        self._lint_memo: dict[str, LintReport] = {}

    # -- lint ----------------------------------------------------------------

    def lint_rtl(
        self,
        module: Module,
        waivers: tuple[Waiver, ...],
        tracer: Tracer | None = None,
    ) -> LintReport:
        """Top-module RTL lint, memoized on content hash + waivers."""
        tracer = get_tracer() if tracer is None else tracer
        payload = {
            "content": content_hash(module),
            "waivers": [w.to_dict() for w in waivers],
        }
        key = hashlib.sha256(
            repr(canonical(payload)).encode("utf-8")
        ).hexdigest()[:24]
        report = self._lint_memo.get(key)
        if report is not None:
            self.metrics.counter("inter.lint.memo_hits").inc()
            with tracer.span("inter.lint.memo", target=module.name):
                pass
            return report
        self.metrics.counter("inter.lint.memo_misses").inc()
        report = lint_module(module, waivers=waivers, tracer=tracer)
        self._lint_memo[key] = report
        return report

    # -- synthesis -----------------------------------------------------------

    def synthesize(
        self,
        module: Module,
        library: Library,
        preset,
        seed: int,
        tracer: Tracer | None = None,
    ) -> SynthesisResult:
        """Per-module memoized synthesis, stitched to one mapped netlist.

        Mirrors :func:`repro.synth.synthesize`'s span structure
        (``step.synthesis`` / ``step.technology_mapping`` /
        ``step.equivalence_check``) so the flow runner's step reports
        read the same attributes either way.  ``netlist`` is ``None`` in
        the returned result: there is no flat gate netlist to expose, so
        flows that need one (``formal_lec``) cannot run eco-style.
        """
        tracer = get_tracer() if tracer is None else tracer
        rtl_lines = count_rtl_lines(module)
        table = module_table(module)
        paths = instance_paths(module)

        with tracer.span("step.synthesis", module=module.name) as synth_span:
            shards: dict[str, Shard] = {}
            hits = misses = 0
            for name in sorted(table):
                key = shard_memo_key(table[name], library, preset)
                shard = self._shards.get(key)
                if shard is None:
                    misses += 1
                    with tracer.span("inter.shard", module=name) as sp:
                        shard = synthesize_shard(table[name], library, preset)
                        if tracer.enabled:
                            sp.set(cells=len(shard.mapped.cells))
                    self._shards[key] = shard
                else:
                    hits += 1
                shards[name] = shard
            self.metrics.counter("inter.synth.memo_hits").inc(hits)
            self.metrics.counter("inter.synth.memo_misses").inc(misses)

            # Stats aggregate over instance paths: a module used twice
            # contributes twice, like it would in a flat elaboration.
            opt = OptStats()
            patterns: dict[str, int] = {}
            sizing = SizingStats() if preset.gate_sizing else None
            for _path, m in paths:
                shard = shards[m.name]
                opt.gates_before += shard.opt_stats.gates_before
                opt.gates_after += shard.opt_stats.gates_after
                opt.iterations = max(
                    opt.iterations, shard.opt_stats.iterations
                )
                for rule, n in shard.opt_stats.rules.items():
                    opt.rules[rule] = opt.rules.get(rule, 0) + n
                for pattern, n in shard.map_stats.patterns.items():
                    patterns[pattern] = patterns.get(pattern, 0) + n
                if sizing is not None and shard.sizing_stats is not None:
                    sizing.upsized += shard.sizing_stats.upsized
                    sizing.examined += shard.sizing_stats.examined
            if tracer.enabled:
                synth_span.set(
                    gates_raw=opt.gates_before,
                    gates_optimized=opt.gates_after,
                    memo_hits=hits, memo_misses=misses,
                )

        with tracer.span("step.technology_mapping") as map_span:
            with tracer.span("inter.stitch", shards=len(shards)):
                mapped = stitch(module, shards, library)
            if tracer.enabled:
                map_span.set(cells=len(mapped.cells))

        with tracer.span(
            "step.equivalence_check", checked=preset.run_equivalence
        ) as sp:
            equivalence = (
                check_equivalence(
                    module, mapped, cycles=preset.equivalence_cycles,
                    seed=seed, tracer=tracer,
                )
                if preset.run_equivalence
                else None
            )
            if equivalence is not None and tracer.enabled:
                sp.set(passed=equivalence.passed,
                       cycles=preset.equivalence_cycles)

        return SynthesisResult(
            module=module,
            netlist=None,
            mapped=mapped,
            opt_stats=opt,
            map_stats=MapStats(patterns=patterns),
            sizing_stats=sizing,
            equivalence=equivalence,
            rtl_lines=rtl_lines,
        )
