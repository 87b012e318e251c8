"""CI smoke: a live ``repro serve-metrics`` run must expose a clean,
strictly-parseable scrape surface.

Starts ``repro serve-metrics`` on a benign loss-only chaos workload (no
crash schedule, so no alert should fire and ``/healthz`` must stay ok),
polls ``/metrics`` and ``/healthz`` over HTTP while the server lingers,
validates the exposition with the strict parser from ``tests.promtext``,
checks that the scrape carries the tracer's ``sim.messages`` hot counter,
and checks the pushed series file carries every sampler series.

On any failure the series JSON (when the run got far enough to write it)
is left in the artifact directory given by ``--artifacts``.

Usage::

    PYTHONPATH=src python .github/scripts/scrape_smoke.py
        [--artifacts DIR] [--timeout 60]

Exit codes: 0 healthy, 1 smoke failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))  # for tests.promtext

from tests.promtext import PromParseError, parse  # noqa: E402

SERVE_ARGS = [
    "serve-metrics", "--side", "12", "--faults", "5", "--seed", "3",
    "--loss", "0.05", "--dup", "0.02", "--events", "0",
    "--fail-on-alerts", "--linger", "20",
]
URL_LINE = re.compile(r"serving (http://[^/\s]+)")
HOT_COUNTER = ("repro_hot_counter_total", (("name", "sim.messages"),))


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", default="out/scrape-artifacts",
                        help="directory for failure evidence")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="overall deadline in seconds")
    args = parser.parse_args(argv)
    artifacts = pathlib.Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    series_path = artifacts / "series.json"

    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *SERVE_ARGS,
         "--series-out", str(series_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + args.timeout
    failures: list[str] = []
    hot_seen = False
    try:
        # The banner with the bound port is the first line out.
        base = None
        for line in process.stdout:
            match = URL_LINE.search(line)
            if match:
                base = match.group(1)
                break
        if base is None:
            failures.append("server never printed its URL")
        else:
            print(f"scraping {base}")
            scrapes = 0
            while time.monotonic() < deadline and scrapes < 3:
                try:
                    status, body = _get(base + "/metrics")
                except (urllib.error.URLError, OSError) as exc:
                    failures.append(f"/metrics unreachable: {exc}")
                    break
                if status != 200:
                    failures.append(f"/metrics returned {status}")
                    break
                try:
                    families = parse(body)
                except PromParseError as exc:
                    failures.append(f"/metrics failed strict parse: {exc}")
                    break
                family = families.get(HOT_COUNTER[0])
                hot_seen = hot_seen or family is not None and any(
                    sample.labels == HOT_COUNTER[1] for sample in family.samples
                )
                status, body = _get(base + "/healthz")
                health = json.loads(body)
                if status != 200 or health["status"] != "ok":
                    failures.append(f"/healthz not ok: {status} {health}")
                    break
                scrapes += 1
                print(f"scrape {scrapes}: {len(families)} families, healthz ok")
                time.sleep(1.0)
            else:
                if scrapes < 3:
                    failures.append("deadline before 3 clean scrapes")
    finally:
        try:
            process.wait(timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("server did not exit on its own")
    if process.returncode not in (0, None):
        failures.append(f"serve-metrics exited {process.returncode} "
                        "(alert fired or run failed)")

    if not failures and not hot_seen:
        failures.append('no scrape carried repro_hot_counter_total{name="sim.messages"}')
    if not failures and series_path.exists():
        payload = json.loads(series_path.read_text())
        missing = {
            "engine.tick", "net.carried", "net.dropped", "net.retried",
        } - set(payload["series"])
        if missing:
            failures.append(f"series file missing {sorted(missing)}")
    elif not failures:
        failures.append("series file was never written")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"evidence left in {artifacts}")
        return 1
    shutil.rmtree(artifacts, ignore_errors=True)
    print("OK: scrape surface healthy and silent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
