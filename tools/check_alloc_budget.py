#!/usr/bin/env python3
"""Gate on the microbenchmarks' heap-allocation counters.

Reads google-benchmark JSON reports and fails when a gated counter exceeds
its committed budget:

- micro_rtec's BM_CERecognitionWindow benchmarks (omega = 6 beta; arg 0 =
  naive engine, arg 1 = incremental, arg 2 = auto, which resolves to
  incremental at that shape), BM_SkewedFleetRecognition and
  BM_LongWindowRecognition report `allocs_per_slide`. The budgets hold generous headroom over the measured
  values (~61 naive / ~107 incremental — the ~20 allocs over the
  pre-scoped ~86 are the dependency projector's steady-state footprint) but
  sit an order of magnitude below the pre-arena baseline (884.8 / 897.7).
- micro_rtec's BM_LongWindowRecognition also reports `feed_allocs_per_cp`
  for CERecognizer::Feed in the spatial-facts mode, over every slide (~0.23
  measured: each newly seen vessel's coord history, fact-table slot and
  index entries; 0.98 while every fact group owned a heap vector).
- micro_tracker's BM_ScanTaggedLines reports `allocs_per_line` for the Data
  Scanner (~0.0063 measured: type 5 names too long for the small-string
  buffer and the regrowth of the drained static-report vector; 0.23 while
  held fragments and type 5 lines returned heap-allocated statuses, 7.3
  before the packed-bit decoder) and BM_TrackerSlide reports `allocs_per_tuple`
  for the sharded tracker (~0.015 measured, almost all of it the ring block
  of each newly seen vessel; ~0.018 while tuples went through a segmented
  queue inbox, ~0.03 with one allocation per ring, 1.07 before the flat
  vessel state).
- micro_tracker's BM_PipelineCheckpoint reports `allocs_per_save` for one
  SurveillancePipeline::SaveTo + EncodeSnapshotFile (5 measured: the
  presized Writer, the file image, and one sorted view each of the coords,
  the open trip segments and the tracker's vessels; 7 while the timelines
  and evidence were sorted at every save too, 13 while the Writer grew by
  doubling), and
  BM_PipelineRestore reports `allocs_per_restore` for DecodeSnapshotFile +
  a fresh pipeline + RestoreFrom of that snapshot (358 measured: ~155 to
  build the pipeline, then about six per vessel and four per committed
  timeline; 564 while the loaders staged timelines in maps and rebuilt each
  vessel twice).

A regression that reintroduces per-slide, per-line or per-tuple heap churn
trips the gate while scheduler noise does not: allocation counting is a
deterministic operator-new interposition, not a timing, so the check is
stable on shared CI runners.

Usage: check_alloc_budget.py BENCHMARK_JSON [BENCHMARK_JSON ...]
Exit status: 0 ok (or counters disabled, e.g. sanitizer builds), 1 over
budget, 2 usage/parse error.
"""

import json
import sys

# (name substring, counter) -> max value
BUDGETS = {
    ("BM_CERecognitionWindow/0", "allocs_per_slide"): 150.0,  # naive engine
    ("BM_CERecognitionWindow/1", "allocs_per_slide"): 200.0,  # incremental
    # auto resolves to incremental at this window shape (omega = 6 beta), so
    # same budget; gated on its own so the resolution stays covered.
    ("BM_CERecognitionWindow/2", "allocs_per_slide"): 200.0,
    # Skewed fleet (601 vessels, steady-state slides only): ~56 allocs/slide
    # measured. Keeping steady slides O(changes) rather than O(fleet) is the
    # point of the scoped-dirty work, so the budget is deliberately far below
    # fleet size: one stray per-vessel allocation (a capturing callback, a
    # cleared-not-reused scratch map) costs ~600 allocs/slide here and trips
    # the gate at once.
    ("BM_SkewedFleetRecognition", "allocs_per_slide"): 300.0,
    # Long window (omega = 9 h, beta = 1 min, steady-state slides only):
    # ~45 allocs/slide measured, nearly all of it the output rows handed
    # back to the caller. Clean keys are fast-forwarded in place and the
    # input merge, subject index and key walk reuse their buffers, so a
    # per-key or per-event allocation (hundreds per slide) trips this.
    ("BM_LongWindowRecognition", "allocs_per_slide"): 120.0,
    # Feeding the same stream (every slide): ~0.23 allocs per critical point
    # measured, all of it one-off growth for newly seen vessels. A heap
    # allocation per fact group reads ~1.0 (0.98 before the flat fact table).
    ("BM_LongWindowRecognition", "feed_allocs_per_cp"): 0.4,
    # Ingest: one stray allocation per line or per tuple is 1.0 and trips
    # these at once. The scanner's budget is about twice its measured
    # 0.0063, so one more allocation per ~150 lines trips it too: a
    # heap-allocated status for each type 5 report reads 0.031.
    ("BM_ScanTaggedLines", "allocs_per_line"): 0.013,
    # The tracker's budget is about twice its measured 0.0153 (each newly
    # seen vessel's ring block): one allocation per ~65 tuples trips it, and
    # so does a per-vessel allocation on every slide.
    ("BM_TrackerSlide", "allocs_per_tuple"): 0.03,
    # Checkpoint (checkpoint_tool's 20-vessel scenario at mid-stream, ~16 KB):
    # 5 measured. The budget sits below the 13 of a Writer that grows by
    # doubling, so losing the size hint trips it; a per-vessel or per-key
    # allocation (20+) trips it too.
    ("BM_PipelineCheckpoint", "allocs_per_save"): 10.0,
    # Restore of the same snapshot (20 vessels): 358 measured. Every
    # per-vessel allocation costs 20 and every per-key one about 13, so
    # rebuilding each vessel's rings a second time (418) or staging the
    # timelines through maps again trips it, while the budget stays below
    # the 564 of the loaders before restores were built in place.
    ("BM_PipelineRestore", "allocs_per_restore"): 400.0,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    seen = {}
    for path in argv[1:]:
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            print(f"cannot read benchmark json {path}: {e}", file=sys.stderr)
            return 2
        for b in report.get("benchmarks", []):
            name = b.get("name", "")
            for key in BUDGETS:
                bench, counter = key
                if bench in name and counter in b:
                    seen[key] = float(b[counter])

    missing = sorted(set(BUDGETS) - set(seen))
    if missing:
        print(f"missing benchmarks/counters in report: {missing}",
              file=sys.stderr)
        return 2

    if all(v == 0.0 for v in seen.values()):
        # Interposition disabled (sanitizer build): nothing to gate on.
        print("allocation counters are zero; counting disabled, skipping")
        return 0

    status = 0
    for (bench, counter), budget in sorted(BUDGETS.items()):
        value = seen[(bench, counter)]
        verdict = "ok" if value <= budget else "OVER BUDGET"
        print(f"{bench}: {counter}={value:.3g} budget={budget:g} [{verdict}]")
        if value > budget:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
