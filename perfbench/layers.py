"""Per-layer metrics of the traced run, named <module>.<function>.<stat>.

Every traced run reports every name below; a layer that the workload
never calls reads 0 (its calls are 0).  BENCHMARK.json lists the same
names in the same order.
"""

from __future__ import annotations

from spans import fit_exponent

MODULES = ("core", "godel", "smullyan", "lawvere", "fixpoint", "reflexive", "cli")

PER_LAYER = [
    ("core.iterate_shift.calls", "count"),
    ("core.iterate_shift.busy_s", "s"),
    ("core.iterate_shift.exp", "exponent"),
    ("core.iterate_shift.gens_out", "count"),
    ("core.compose.calls", "count"),
    ("core.compose.busy_s", "s"),
    ("core.compose.exp", "exponent"),
    ("core.word.calls", "count"),
    ("core.word.busy_s", "s"),
    ("core.word_str.calls", "count"),
    ("core.word_str.busy_s", "s"),
    ("godel.sharp_decimal.calls", "count"),
    ("godel.sharp_decimal.busy_s", "s"),
    ("godel.sharp_decimal.exp", "exponent"),
    ("godel.codec.busy_s", "s"),
    ("godel.value.calls", "count"),
    ("godel.value.busy_s", "s"),
    ("godel.value.exp", "exponent"),
    ("godel.compose_morphisms.calls", "count"),
    ("godel.compose_morphisms.busy_s", "s"),
    ("godel.runs_out", "count"),
    ("godel.digits_out", "count"),
    ("smullyan.make_truthful.busy_s", "s"),
    ("smullyan.make_truthful.exp", "exponent"),
    ("smullyan.make_truthful.kept_ratio", "ratio"),
    ("smullyan.reference_arrow.calls", "count"),
    ("smullyan.reference_arrow.busy_s", "s"),
    ("lawvere.sweep.busy_s", "s"),
    ("lawvere.sweep.tables", "count"),
    ("lawvere.sweep.represented_ratio", "ratio"),
    ("lawvere.cantor_diagonal.busy_s", "s"),
    ("lawvere.cantor_diagonal.exp", "exponent"),
    ("fixpoint.reduce.busy_s", "s"),
    ("fixpoint.reduce.exp", "exponent"),
    ("fixpoint.reduce.steps", "count"),
    ("fixpoint.reduce.step_ratio", "ratio"),
    ("fixpoint.parse_term.busy_s", "s"),
    ("fixpoint.term_str.busy_s", "s"),
    ("reflexive.enumerate_composites.busy_s", "s"),
    ("reflexive.enumerate_composites.words_out", "count"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.run.busy_s", "s"),
] + [(f"{m}.{stat}", unit) for m in MODULES for stat, unit in (("self_s", "s"), ("share", "ratio"))] + [
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead", "ratio"),
]

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "smullyan.make_truthful.kept_ratio": ("smullyan.make_truthful.kept", "smullyan.make_truthful.universe"),
    "lawvere.sweep.represented_ratio": ("lawvere.sweep.represented", "lawvere.sweep.tables"),
    "fixpoint.reduce.step_ratio": ("fixpoint.reduce.steps", "fixpoint.reduce.requested"),
}


def compute(tr, wall_s, extra):
    """(name -> (value, unit), name -> exponent fit) from one traced pass."""
    busy = tr.busy()
    values, fits = {}, {}
    for name, unit in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if name in extra:
            value = extra[name]
        elif name in RATIOS:
            num, den = RATIOS[name]
            value = tr.counts[num] / tr.counts[den] if tr.counts[den] else 0.0
        elif stat == "calls":
            value = busy[base][0] if base in busy else 0
        elif stat == "busy_s":
            value = busy[base][1] if base in busy else 0.0
        elif stat == "exp":
            fit = fit_exponent(tr.sized(base))
            value = fit[0]
            if fit[3] >= 3:
                fits[name] = fit
        elif stat in ("self_s", "share") and base in MODULES:
            self_s = sum(row[2] for n, row in busy.items() if n.startswith(base + "."))
            value = self_s if stat == "self_s" else self_s / wall_s
        elif name.startswith("cli."):
            value = 0.0  # measured only by the cli-cold workload's extra probes
        else:
            value = tr.counts[name]
        values[name] = (value, unit)
    return values, fits
