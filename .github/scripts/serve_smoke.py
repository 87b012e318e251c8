"""CI smoke: a live ``repro serve`` must answer, ingest, drain, and exit 0.

Starts ``repro serve`` with background chaos churn and a shutdown notice
window, then walks the whole service surface over real HTTP:

- ``/readyz`` is 200 once the banner prints and the pipeline accepts;
- ``/query`` answers with a full verdict payload (strategy, generation,
  staleness, path witness) and rejects malformed coordinates with 400;
- ``POST /fault`` applies a crash at the mesh centre (never an initial
  fault, never a chaos victim) and bumps the reported generation;
- ``/healthz`` stays 200 (it reports *liveness*; degradation is data);
- ``/metrics`` passes the strict exposition parser from
  ``tests.promtext``, carries the serve metric families, and its
  counters reconcile: arrived = served + shed_overload + shed_deadline
  + bad_request + error.

Then SIGTERM: during the ``--notice`` window ``/readyz`` must flip to
503 (the load-balancer out-of-rotation signal) while the listener stays
up, and the process must drain and exit 0 -- an operator stop is not a
failure.

On any failure the evidence (responses, server log) is left in the
artifact directory given by ``--artifacts``.

Usage::

    PYTHONPATH=src python .github/scripts/serve_smoke.py
        [--artifacts DIR] [--timeout 90]

Exit codes: 0 healthy, 1 smoke failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))  # for tests.promtext

from tests.promtext import PromParseError, parse  # noqa: E402

SERVE_ARGS = [
    "serve", "--side", "12", "--faults", "5", "--seed", "3",
    "--events", "6", "--event-interval", "0.25",
    "--notice", "3", "--grace", "5",
]
URL_LINE = re.compile(r"serving (http://[^/\s]+)")
#: Every arrival ends in exactly one of these outcomes.
RECONCILED = ("served", "shed_overload", "shed_deadline", "bad_request", "error")
SERVE_FAMILIES = {
    "repro_serve_requests_total",
    "repro_serve_arrived_total",
    "repro_serve_latency_seconds",
    "repro_serve_queue_depth",
    "repro_serve_breaker_open",
    "repro_serve_generation",
}


def _get(url: str, method: str = "GET") -> tuple[int, str]:
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:  # 4xx/5xx still carry JSON
        return error.code, error.read().decode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", default="out/serve-artifacts",
                        help="directory for failure evidence")
    parser.add_argument("--timeout", type=float, default=90.0,
                        help="overall deadline in seconds")
    args = parser.parse_args(argv)
    artifacts = pathlib.Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    log_path = artifacts / "serve.log"

    log = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *SERVE_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + args.timeout
    failures: list[str] = []

    def check(name: str, condition: bool, detail: str) -> bool:
        if condition:
            print(f"ok: {name}")
        else:
            failures.append(f"{name}: {detail}")
            (artifacts / f"{name.replace('/', '_')}.txt").write_text(detail)
        return condition

    try:
        base = None
        for line in process.stdout:
            log.write(line)
            match = URL_LINE.search(line)
            if match:
                base = match.group(1)
                break
        if base is None:
            failures.append("server never printed its URL")
            return 1
        print(f"probing {base}")

        status, body = _get(base + "/readyz")
        payload = json.loads(body)
        check("readyz-up", status == 200 and payload["status"] == "ready",
              f"{status} {body}")

        status, body = _get(base + "/query?source=0,0&dest=11,11")
        payload = json.loads(body) if body else {}
        check(
            "query-answer",
            status == 200 and payload.get("status") == "ok"
            and {"verdict", "strategy", "generation", "staleness",
                 "degraded"} <= set(payload.get("answer", {})),
            f"{status} {body}",
        )

        status, body = _get(base + "/query?source=frog&dest=0,0")
        check("query-bad-request", status == 400, f"{status} {body}")

        # The mesh centre is excluded from both initial faults and the
        # chaos schedule, so this crash always applies cleanly.
        status, body = _get(base + "/fault?event=crash&coord=6,6",
                            method="POST")
        payload = json.loads(body) if body else {}
        check("fault-ingest",
              status == 200 and payload.get("generation", 0) >= 1,
              f"{status} {body}")

        status, body = _get(base + "/healthz")
        payload = json.loads(body) if body else {}
        check("healthz", status == 200 and payload.get("status") in
              ("ok", "degraded"), f"{status} {body}")

        status, body = _get(base + "/metrics")
        if check("metrics-status", status == 200, f"{status}"):
            try:
                families = parse(body)
            except PromParseError as exc:
                (artifacts / "metrics.txt").write_text(body)
                failures.append(f"/metrics failed strict parse: {exc}")
            else:
                missing = SERVE_FAMILIES - set(families)
                if check("metrics-families", not missing, f"missing {missing}"):
                    arrived = families["repro_serve_arrived_total"].samples[0].value
                    outcomes = {
                        sample.label_dict["outcome"]: sample.value
                        for sample in families["repro_serve_requests_total"].samples
                    }
                    settled = sum(outcomes[outcome] for outcome in RECONCILED)
                    check("metrics-reconcile", arrived == settled,
                          f"arrived {arrived} != {settled} settled {outcomes}")

        # Graceful shutdown: during the notice window the listener stays
        # up but /readyz must advertise 503 so balancers stop routing.
        process.send_signal(signal.SIGTERM)
        flipped = False
        while time.monotonic() < deadline:
            try:
                status, body = _get(base + "/readyz")
            except (urllib.error.URLError, OSError):
                break  # listener closed: notice window over
            if status == 503:
                flipped = True
                break
            time.sleep(0.1)
        check("readyz-drain", flipped, "never observed 503 after SIGTERM")
    finally:
        try:
            remaining, _ = process.communicate(
                timeout=max(5.0, deadline - time.monotonic()))
            log.write(remaining or "")
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("server did not exit within the deadline")
        log.close()
    check("exit-zero", process.returncode == 0,
          f"exited {process.returncode}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"evidence left in {artifacts}")
        return 1
    shutil.rmtree(artifacts, ignore_errors=True)
    print("OK: serve surface healthy, drained clean on SIGTERM")
    return 0


if __name__ == "__main__":
    sys.exit(main())
