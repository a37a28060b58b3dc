#!/usr/bin/env python3
"""Layout-sampled A/B runs of the repository benchmark.

Link order alone moves a timing of identical code by several percent
(Mytkowicz et al., "Producing Wrong Data Without Doing Anything Obviously
Wrong!", ASPLOS 2009), so a single build per side can show a gain or a
loss that is only layout. This runner treats layout as a sampled variable,
in the spirit of STABILIZER (Curtsinger & Berger, ASPLOS 2013): it builds
each side's `grmined` and `perfbench` harness once per shuffle seed, each
build in a target directory of its own, linked by rust-lld with
`--shuffle-sections=*=<seed>`, and alternates runs across sides and
layouts. The shuffle moves whole function sections only; data and stack
placement stay as the linker and the allocator leave them.

Usage, from anywhere inside the repository:

    python3 crates/bench/ab_layout.py --a <rev> --b <rev> --work DIR \\
        --workload mine-inmem --seconds 25 --layouts 4 --rounds 2 \\
        --seed-base 3000 [--trace 0|1] [--metric cycle_s ...] [--json OUT]

A side is a git revision; its tree is exported with `git archive` into
DIR/<side>-<commit>, which also holds its builds and the harness's
fixture work, so a rerun over the same revisions reuses them. Give
both sides one revision for an A/A calibration run. Each round runs every
layout once per side, the two sides of a pair back to back in alternating
order and on the same benchmark seed (`--seed-base` plus the pair's
index). The harness gets the arguments `perfbench/run.py` passes it.

Per side the report gives the median and q1-q3 of each metric over all
runs, the spread of the per-layout medians, and how many pairs and
layouts side B won (had the lower value; the higher for `serve_rps`).
Nothing is written outside DIR and the `--json` file.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Metrics where a higher value is better; every other one is a cost.
HIGHER_IS_BETTER = {"serve_rps", "io.bytes_per_s", "parallel.speedup",
                    "miner.accept_ratio", "service.cache_hit_ratio"}


def quantile(sorted_values, q):
    """Linearly interpolated quantile of an ascending list."""
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(values):
    v = sorted(values)
    return quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)


def toolchain():
    sysroot = subprocess.run(["rustc", "--print", "sysroot"], check=True,
                             capture_output=True, text=True).stdout.strip()
    host = next(line.split(":", 1)[1].strip()
                for line in subprocess.run(["rustc", "-vV"], check=True,
                                           capture_output=True, text=True).stdout.splitlines()
                if line.startswith("host:"))
    return sysroot, host


def export(rev, dest):
    """The tree of `rev`, exported into `dest` (once)."""
    if os.path.isdir(dest):
        return
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build(src, target, seed, sysroot, host):
    """Release `grmined` and `perfbench` of `src`, linked with layout `seed`."""
    link = ["-C", "link-arg=-fuse-ld=lld",
            "-C", "link-arg=-B{}/lib/rustlib/{}/bin/gcc-ld".format(sysroot, host),
            "-C", "link-arg=-Wl,--shuffle-sections=*={}".format(seed)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, binary in ((os.path.join(src, "Cargo.toml"), "grmined"),
                             (os.path.join(src, "perfbench", "Cargo.toml"), "perfbench")):
        cmd = ["cargo", "rustc", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, "--bin", binary, "--"] + link
        subprocess.run(cmd, cwd=src, env=env, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "grmined")


def run_once(side, layout, seed, args):
    """One harness run; returns (metrics, ok)."""
    harness, grmined = side["bins"][layout]
    cmd = [harness, "--grmined", grmined, "--work", side["work"],
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=side["src"], capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        return {}, False
    ok = done.returncode == 0 and result.get("correct") is True and result.get("failed") == 0
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return values, ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="git revision of side A (the parent)")
    p.add_argument("--b", required=True, help="git revision of side B (the change)")
    p.add_argument("--work", required=True, help="directory for trees, builds and fixtures")
    p.add_argument("--workload", default="mine-inmem")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--layouts", type=int, default=4, help="shuffle seeds per side (1..K)")
    p.add_argument("--rounds", type=int, default=1, help="runs per layout and side")
    p.add_argument("--seed-base", type=int, default=1, help="benchmark seed of the first pair")
    p.add_argument("--metric", action="append", help="metric to report (repeatable; default cycle_s)")
    p.add_argument("--json", help="write every run and the summary here")
    args = p.parse_args()
    metrics = args.metric or ["cycle_s"]
    if args.layouts < 1 or args.rounds < 1:
        p.error("--layouts and --rounds must be at least 1")
    work = os.path.abspath(args.work)
    sysroot, host = toolchain()

    sides = []
    for name, rev in (("A", args.a), ("B", args.b)):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev + "^{commit}"],
                                check=True, capture_output=True, text=True).stdout.strip()
        base = os.path.join(work, "{}-{}".format(name, commit))
        src = os.path.join(base, "src")
        export(commit, src)
        side = {"name": name, "rev": commit, "src": src,
                "work": os.path.join(base, "perfbench-work"), "bins": {}, "runs": []}
        for layout in range(1, args.layouts + 1):
            t = time.time()
            side["bins"][layout] = build(src, os.path.join(base, "target-L{}".format(layout)),
                                         layout, sysroot, host)
            sys.stderr.write("built {} ({}) layout {} in {:.0f} s\n".format(
                name, commit, layout, time.time() - t))
        sides.append(side)

    pair = 0
    for rnd in range(args.rounds):
        for layout in range(1, args.layouts + 1):
            seed = args.seed_base + pair
            order = sides if pair % 2 == 0 else sides[::-1]
            for side in order:
                values, ok = run_once(side, layout, seed, args)
                side["runs"].append({"round": rnd, "layout": layout, "seed": seed,
                                     "ok": ok, "metrics": values})
                sys.stderr.write("pair {:>2} layout {} seed {} side {}: {}{}\n".format(
                    pair, layout, seed, side["name"],
                    " ".join("{}={}".format(m, values.get(m)) for m in metrics),
                    "" if ok else "  FAILED"))
            pair += 1

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "layouts": args.layouts, "rounds": args.rounds, "seed_base": args.seed_base,
              "sides": [{k: s[k] for k in ("name", "rev", "runs")} for s in sides],
              "summary": {}}
    a, b = sides
    failed = sum(not r["ok"] for s in sides for r in s["runs"])
    print("{} at --seconds {:g}, {} layouts x {} rounds per side, seeds {}-{}{}".format(
        args.workload, args.seconds, args.layouts, args.rounds, args.seed_base,
        args.seed_base + pair - 1, "; {} FAILED runs".format(failed) if failed else ""))
    for m in metrics:
        higher = m in HIGHER_IS_BETTER
        print("\n{} ({} is better)".format(m, "higher" if higher else "lower"))
        row = {}
        for s in sides:
            vals = [r["metrics"][m] for r in s["runs"] if m in r["metrics"]]
            if not vals:
                print("  {} {}: no values".format(s["name"], s["rev"]))
                continue
            med, q1, q3 = summary(vals)
            per_layout = [summary([r["metrics"][m] for r in s["runs"]
                                   if r["layout"] == layout and m in r["metrics"]])[0]
                          for layout in range(1, args.layouts + 1)]
            lo, hi = min(per_layout), max(per_layout)
            row[s["name"]] = {"median": med, "q1": q1, "q3": q3, "layout_medians": per_layout}
            print("  {} {}: median {:.4g} (q1-q3 {:.4g}-{:.4g}) over {} runs; "
                  "layout medians {:.4g}-{:.4g} (spread {:.1f} %)".format(
                      s["name"], s["rev"], med, q1, q3, len(vals), lo, hi,
                      100 * (hi - lo) / lo if lo else float("nan")))
        if len(row) < 2:
            continue
        better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
        pairs = [(ra["metrics"].get(m), rb["metrics"].get(m))
                 for ra in a["runs"] for rb in b["runs"]
                 if (ra["round"], ra["layout"]) == (rb["round"], rb["layout"])]
        pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
        won = sum(better(y, x) for x, y in pairs)
        layouts_won = sum(better(y, x) for x, y in zip(row["A"]["layout_medians"],
                                                        row["B"]["layout_medians"]))
        delta = row["B"]["median"] - row["A"]["median"]
        iqr = row["A"]["q3"] - row["A"]["q1"]
        print("  B won {}/{} pairs and {}/{} layouts; B - A median {:+.4g} ({:+.1f} %), "
              "A's q1-q3 spread {:.4g}".format(
                  won, len(pairs), layouts_won, args.layouts, delta,
                  100 * delta / row["A"]["median"] if row["A"]["median"] else float("nan"), iqr))
        report["summary"][m] = dict(row, pairs_won=won, pairs=len(pairs),
                                    layouts_won=layouts_won, delta=delta, a_iqr=iqr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
