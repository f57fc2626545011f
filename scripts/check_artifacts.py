#!/usr/bin/env python3
"""Validate the benchmark artifacts CI uploads.

Each ``--kind`` is one checked artifact contract (previously an inline
script in ``.github/workflows/ci.yml``):

* ``table1-counters FILE`` — ``itpseq-table1/v9`` JSON: every record
  carries the SAT-core and search counters, the preprocessing reduction
  counters, the fault-isolation counters, ``containment_calls`` and
  ``containment_simulated``; the suite as a whole exercised
  minimization, clause deletion and database reduction, and each
  interpolation engine (ITP, ITPSEQ, SITPSEQ, ITPSEQCBA) counted
  fixpoint containment queries on at least one proved record and
  refuted at least one check from a witness state without a query.
* ``table1-depths FILE BASELINE`` — ``itpseq-table1/v9`` JSON of
  ``table1 --suite full`` against ``baselines/table1-depths.json``: for
  every benchmark and each sequential engine (ITP, ITPSEQ, SITPSEQ,
  ITPSEQCBA, PDR), the verdict kind, ``k_fp``/``j_fp`` or the falsified depth,
  ``sat_calls``, ``interpolants`` and ``containment_calls`` must equal the
  baseline wherever both sides are conclusive.  A record that is
  inconclusive on either side (a timeout on a slow runner) is listed, not
  failed.  ``--update`` rewrites BASELINE from FILE instead, for a change
  that moves these numbers on purpose.
* ``chaos-counters FILE`` — ``itpseq-table1/v9`` JSON from a ``--chaos``
  run: fault injection was armed, so the counters must show faults
  actually fired, every verdict must still be a recognised kind, and
  every inconclusive record must carry a machine-readable reason.  Each
  record ran under one plan, which fires at most once
  (``faults_injected <= 1``, even across racing entrants), and every
  contained panic was an injected one
  (``panics_contained <= faults_injected``).
* ``trace-schema TRACE CHROME BASELINE TRACED`` — ``itpseq-trace/v1``
  JSONL: balanced span tree per track, verdict markers, engine-run
  spans, non-empty Chrome export, and the no-op-sink baseline run is
  not suspiciously slower than the recording run.
* ``hwmcc-schema FILE`` — ``itpseq-hwmcc/v2`` JSON: fixture designs all
  parsed, every property has a recognised status, at least one verdict
  is conclusive, the outputs-as-properties fallback was exercised, and
  the preprocessing pipeline reports per-pass reduction statistics with
  nonzero AND-gate and latch removal somewhere in the fixture set (the
  industrial-shaped fixture guarantees both).
* ``report REPORT FOLDED`` — ``itpseq-report/v1`` JSON plus its folded
  flamegraph export: non-empty span aggregates with engine-run spans,
  per-track self times summing to the busy time and bounded by the wall
  time, and a non-empty well-formed collapsed-stack file whose per-track
  weights equal the report's busy times.

Exit status is non-zero (an ``AssertionError`` traceback) on any
violated contract, which fails the CI step.
"""

import argparse
import json
import sys


INTERPOLATING = ["ITP", "ITPSEQ", "SITPSEQ", "ITPSEQCBA"]

# The engines whose work the depth baseline pins: every sequential engine
# is deterministic at ``threads = 1``.  PDR makes no containment queries,
# so the counters gate above keeps to the interpolating engines.
DEPTH_ENGINES = INTERPOLATING + ["PDR"]

FAULT_COUNTERS = [
    "panics_contained",
    "memlimit_hits",
    "faults_injected",
    "pool_seq_reruns",
]


def load_table1(path):
    doc = json.load(open(path))
    assert doc["schema"] == "itpseq-table1/v9", doc["schema"]
    records = doc["records"]
    assert records, "the run produced no records"
    return records


def check_table1_counters(path):
    records = load_table1(path)
    counters = [
        "learned_deleted",
        "minimized_literals",
        "db_reductions",
        "decisions",
        "propagations",
        "restarts",
    ]
    reduction = [
        "preprocess_time_ms",
        "ands_removed",
        "latches_removed",
        "inputs_removed",
        "cert_clauses_subsumed",
    ]
    for record in records:
        containment = ["containment_calls", "containment_simulated"]
        for field in reduction + FAULT_COUNTERS + containment:
            assert field in record, f"{field} missing from {record['benchmark']}"

    for record in records:
        for counter in counters:
            assert counter in record, f"{counter} missing from {record['benchmark']}"
    # Restarts can legitimately stay zero on the tiny smoke instances;
    # search activity itself cannot.
    for counter in counters[:-1]:
        total = sum(r[counter] for r in records)
        assert total > 0, f"{counter} is zero across the whole smoke suite"
        print(f"total {counter}: {total}")
    # Every interpolation engine decides its fixpoint checks with counted
    # containment queries; a proof without one means they went uncounted.
    for engine in INTERPOLATING:
        proved = [
            r
            for r in records
            if r["engine"] == engine and r["verdict"] == "proved"
        ]
        assert proved, f"{engine} proved nothing on the smoke suite"
        calls = max(r["containment_calls"] for r in proved)
        assert calls > 0, f"{engine} proved without a counted containment query"
        # Almost every fixpoint check is satisfiable, and the witness
        # states of earlier ones refute most of them without a query.
        simulated = sum(r["containment_simulated"] for r in records if r["engine"] == engine)
        assert simulated > 0, f"{engine} refuted no containment check by simulation"
        print(
            f"{engine}: up to {calls} containment calls per proof, "
            f"{simulated} checks refuted by simulation"
        )
    # Without injection armed, no run may report a fault.
    injected = sum(r["faults_injected"] for r in records)
    assert injected == 0, f"faults reported without injection armed: {injected}"


DEPTH_FIELDS = [
    "verdict",
    "k_fp",
    "j_fp",
    "depth",
    "sat_calls",
    "interpolants",
    "containment_calls",
]

DEPTHS_SCHEMA = "itpseq-table1-depths/v1"


def depth_records(path):
    """The sequential engines' records of a table1 run, keyed by
    (benchmark, engine), each cut down to the fields the depth baseline
    pins."""
    records = {}
    for record in load_table1(path):
        if record["engine"] in DEPTH_ENGINES:
            key = (record["benchmark"], record["engine"])
            records[key] = {field: record[field] for field in DEPTH_FIELDS}
    return records


def write_table1_depths(path, baseline_path):
    records = depth_records(path)
    body = [
        dict(benchmark=benchmark, engine=engine, **fields)
        for (benchmark, engine), fields in records.items()
    ]
    inconclusive = [r for r in body if r["verdict"] == "inconclusive"]
    assert not inconclusive, f"refusing to pin inconclusive records: {inconclusive}"
    with open(baseline_path, "w") as out:
        out.write('{\n  "schema": "%s",\n  "records": [\n' % DEPTHS_SCHEMA)
        out.write(",\n".join("    " + json.dumps(r) for r in body))
        out.write("\n  ]\n}\n")
    print(f"wrote {len(body)} records to {baseline_path}")


def check_table1_depths(path, baseline_path):
    doc = json.load(open(baseline_path))
    assert doc["schema"] == DEPTHS_SCHEMA, doc["schema"]
    run = depth_records(path)
    mismatches, unchecked = [], []
    for expected in doc["records"]:
        key = (expected["benchmark"], expected["engine"])
        got = run.get(key)
        if got is None:
            mismatches.append(f"{key}: no record in the run")
        elif "inconclusive" in (got["verdict"], expected["verdict"]):
            unchecked.append(f"{key}: {got['verdict']} vs baseline {expected['verdict']}")
        else:
            diff = {
                field: (got[field], expected[field])
                for field in DEPTH_FIELDS
                if got[field] != expected[field]
            }
            if diff:
                mismatches.append(f"{key}: (run, baseline) {diff}")
    extra = set(run) - {(r["benchmark"], r["engine"]) for r in doc["records"]}
    mismatches.extend(f"{key}: not in the baseline" for key in sorted(extra))
    for line in unchecked:
        print(f"inconclusive, not compared: {line}")
    compared = len(doc["records"]) - len(unchecked)
    assert not mismatches, "depth baseline mismatch:\n" + "\n".join(mismatches)
    print(f"{compared} records match the depth baseline, {len(unchecked)} not compared")


def check_chaos_counters(path):
    records = load_table1(path)
    for record in records:
        for field in FAULT_COUNTERS:
            assert field in record, f"{field} missing from {record['benchmark']}"
        assert record["verdict"] in ("proved", "falsified", "inconclusive"), record
        if record["verdict"] == "inconclusive":
            assert record["reason"], f"opaque inconclusive record: {record}"
        assert record["faults_injected"] <= 1, f"one plan fired twice: {record}"
        assert (
            record["panics_contained"] <= record["faults_injected"]
        ), f"a contained panic was not injected: {record}"
    injected = sum(r["faults_injected"] for r in records)
    contained = sum(r["panics_contained"] for r in records)
    degraded = sum(r["verdict"] == "inconclusive" for r in records)
    assert injected > 0, "injection was armed but no fault fired"
    print(
        f"{len(records)} records: {injected} faults injected, "
        f"{contained} panics contained, {degraded} degraded verdicts"
    )


def check_trace_schema(trace_path, chrome_path, baseline_path, traced_path):
    lines = open(trace_path).read().splitlines()
    assert lines, "empty trace"
    header = json.loads(lines[0])
    assert header["schema"] == "itpseq-trace/v1", header
    events = [json.loads(line) for line in lines[1:]]
    assert events, "trace carries no events"
    depth, spans = {}, 0
    for e in events:
        assert {"seq", "ts_us", "track", "ph", "name"} <= e.keys(), e
        if e["ph"] == "B":
            depth[e["track"]] = depth.get(e["track"], 0) + 1
        elif e["ph"] == "E":
            depth[e["track"]] = depth.get(e["track"], 0) - 1
            assert depth[e["track"]] >= 0, f"unbalanced span on {e['track']}"
            spans += 1
    assert spans > 0, "no complete spans recorded"
    assert any(
        e["name"] in ("verdict", "prop.decide") for e in events
    ), "no verdict / property-decision markers"
    assert any(
        e["name"].endswith(".run") or e["name"].endswith(".multi") for e in events
    ), "no engine run spans"
    chrome = json.load(open(chrome_path))
    assert chrome["traceEvents"], "empty chrome trace"
    base = json.load(open(baseline_path))
    traced = json.load(open(traced_path))
    base_ms = sum(d.get("time_ms", 0) for d in base["designs"])
    traced_ms = sum(d.get("time_ms", 0) for d in traced["designs"])
    print(
        f"{len(events)} events, {spans} spans; "
        f"no-op {base_ms:.0f} ms vs recorded {traced_ms:.0f} ms"
    )
    assert (
        base_ms <= traced_ms * 3 + 1000
    ), f"no-op-sink run suspiciously slow: {base_ms} vs {traced_ms}"


def check_hwmcc_schema(path):
    doc = json.load(open(path))
    assert doc["schema"] == "itpseq-hwmcc/v2", doc["schema"]
    designs = doc["designs"]
    assert len(designs) >= 4, f"expected the fixture designs, got {len(designs)}"
    conclusive = 0
    pass_names = {"strash", "constants", "stuck", "dead", "coi"}
    for design in designs:
        assert "error" not in design, design
        assert design["properties"], f"{design['file']} has no properties"
        for prop in design["properties"]:
            assert prop["status"] in ("proved", "falsified", "inconclusive"), prop
            conclusive += prop["status"] != "inconclusive"
        pre = design.get("preprocess")
        assert pre is not None, f"{design['file']} carries no preprocess report"
        assert pre["passes"], f"{design['file']} ran no preprocessing passes"
        for stage in pre["passes"]:
            assert stage["pass"] in pass_names, stage
            for field in ("ands_removed", "latches_removed", "inputs_removed"):
                assert field in stage, stage
    assert conclusive > 0, "the fixture run decided nothing"
    assert any(
        d["promoted_outputs"] for d in designs
    ), "the outputs-as-properties fallback fixture must be exercised"
    reduced_ands = sum(d["preprocess"]["ands_removed"] for d in designs)
    reduced_latches = sum(d["preprocess"]["latches_removed"] for d in designs)
    assert reduced_ands > 0, "no fixture design lost an AND gate to preprocessing"
    assert reduced_latches > 0, "no fixture design lost a latch to preprocessing"
    print(
        f"{len(designs)} designs, {conclusive} conclusive properties, "
        f"preprocessing removed {reduced_ands} ands / {reduced_latches} latches"
    )


def check_report(report_path, folded_path):
    doc = json.load(open(report_path))
    assert doc["schema"] == "itpseq-report/v1", doc["schema"]
    assert doc["total_events"] > 0, "report over an empty trace"
    spans = doc["spans"]
    assert spans, "no span aggregates"
    assert any(
        s["name"].endswith(".run") or s["name"].endswith(".multi") for s in spans
    ), "no engine run spans in the aggregates"
    for span in spans:
        assert span["self_us"] <= span["total_us"], span
        assert span["min_us"] <= span["p50_us"] <= span["p99_us"] <= span["max_us"], span
    tracks = {t["track"]: t for t in doc["tracks"]}
    assert tracks, "no tracks"
    for name, track in tracks.items():
        self_sum = sum(s["self_us"] for s in spans if s["track"] == name)
        assert self_sum == track["busy_us"], (
            f"{name}: self times sum to {self_sum}, busy is {track['busy_us']}"
        )
        assert track["busy_us"] <= track["wall_us"], track
    folded = open(folded_path).read().splitlines()
    assert folded, "empty folded flamegraph export"
    weights = {}
    for line in folded:
        stack, weight = line.rsplit(" ", 1)
        frames = stack.split(";")
        assert frames and all(frames), f"malformed stack: {line!r}"
        weights[frames[0]] = weights.get(frames[0], 0) + int(weight)
    for name, total in weights.items():
        assert name in tracks, f"folded track {name} missing from the report"
        assert total == tracks[name]["busy_us"], (
            f"{name}: folded weight {total} != busy {tracks[name]['busy_us']}"
        )
    print(
        f"{len(spans)} span aggregates over {len(tracks)} tracks, "
        f"{len(folded)} folded stacks"
    )


KINDS = {
    "table1-counters": (check_table1_counters, 1),
    "chaos-counters": (check_chaos_counters, 1),
    "trace-schema": (check_trace_schema, 4),
    "hwmcc-schema": (check_hwmcc_schema, 1),
    "report": (check_report, 2),
    "table1-depths": (check_table1_depths, 2),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=sorted(KINDS))
    parser.add_argument("files", nargs="+", help="artifact file(s), see --kind docs")
    parser.add_argument(
        "--update",
        action="store_true",
        help="table1-depths only: rewrite BASELINE from FILE instead of checking",
    )
    args = parser.parse_args()
    check, arity = KINDS[args.kind]
    if len(args.files) != arity:
        parser.error(f"--kind {args.kind} takes exactly {arity} file argument(s)")
    if args.update:
        if args.kind != "table1-depths":
            parser.error("--update only applies to --kind table1-depths")
        write_table1_depths(*args.files)
        return
    check(*args.files)


if __name__ == "__main__":
    sys.exit(main())
