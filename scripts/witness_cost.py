"""Per-end cost of the rotation-index witness and the limit-circle deviation
on freshly built data.

For each of the ten surfaces of the benchmark's ``analyze-catalog`` workload
(catenoid, plane, Enneper, the holomorphic counterexample and Jorge-Meeks
m = 1..6), every round rebuilds the datum from its coefficient arrays, as
``minsurf analyze`` builds it from a file, runs ``run_analysis`` and then
times ``rotation_index_numeric`` at R = 1e2, 1e3, 1e4 on each end; the
first witness call on a datum also builds the end's local immersion.  It
prints one JSON object: the median per-end witness time in milliseconds per
surface and its sum over a catalog round, and the median warm per-end time
(the same datum witnessed again); next to them, the ``run_analysis``
milliseconds per catalog round, fresh (the rebuilt datum's first analysis)
and warm (the same datum analysed again), each the sum over the surfaces of
their medians; and the median time per cut of ``limit_circle_deviation``
per surface, one call at R = 1e2, 1e3, 1e4 on each end of the warm datum,
with its sum over the cuts of a catalog round.  Process time, so other processes on
the machine count less.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/witness_cost.py [--rounds N]
"""

import argparse
import json
import statistics
import time

import minsurf as ms

R_LIST = (1e2, 1e3, 1e4)


def rebuilt(w):
    return ms.WeierstrassData([ms.RationalMap(r.num.coeffs.copy(), r.den.coeffs.copy())
                               for r in w.phi], punctures=w.punctures, label=w.label)


def analysis_ms(w):
    t = time.process_time()
    rep = ms.run_analysis(w)
    return rep, 1e3 * (time.process_time() - t)


def witness_ms(w, ends):
    t = time.process_time()
    for e in ends:
        ms.rotation_index_numeric(w, e.puncture, R_LIST, end=e)
    return 1e3 * (time.process_time() - t) / len(ends)


def deviation_ms(w, ends):
    t = time.process_time()
    for e in ends:
        ms.limit_circle_deviation(w, e.puncture, R_LIST, end=e)
    return 1e3 * (time.process_time() - t) / (len(ends) * len(R_LIST))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    entries = ms.catalog.entries(jm_range=range(1, 7))
    fresh = {e.name: [] for e in entries}
    warm = {e.name: [] for e in entries}
    analysis = {e.name: [] for e in entries}
    analysis_warm = {e.name: [] for e in entries}
    deviation = {e.name: [] for e in entries}
    for _ in range(args.rounds):
        for entry in entries:
            w = rebuilt(entry.data)
            rep, ms_fresh = analysis_ms(w)
            analysis[entry.name].append(ms_fresh)
            fresh[entry.name].append(witness_ms(w, rep.ends))
            warm[entry.name].append(witness_ms(w, rep.ends))
            analysis_warm[entry.name].append(analysis_ms(w)[1])
            deviation[entry.name].append(deviation_ms(w, rep.ends))
    per_end = {name: round(statistics.median(v), 4) for name, v in fresh.items()}
    per_end_warm = {name: round(statistics.median(v), 4) for name, v in warm.items()}
    per_cut = {name: round(statistics.median(v), 4) for name, v in deviation.items()}
    ends = {e.name: len(e.data.punctures) for e in entries}
    print(json.dumps({
        "rounds": args.rounds,
        "fresh_per_end_ms": per_end,
        "warm_per_end_ms": per_end_warm,
        "fresh_round_ms": round(sum(per_end[n] * ends[n] for n in ends), 3),
        "warm_round_ms": round(sum(per_end_warm[n] * ends[n] for n in ends), 3),
        "fresh_analysis_round_ms": round(sum(map(statistics.median, analysis.values())), 3),
        "warm_analysis_round_ms": round(sum(map(statistics.median, analysis_warm.values())), 3),
        "deviation_per_cut_ms": per_cut,
        "deviation_round_ms": round(sum(per_cut[n] * ends[n] for n in ends) * len(R_LIST), 3),
    }))


if __name__ == "__main__":
    main()
