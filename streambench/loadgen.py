"""Open-loop query load for the ``serve-live`` workload; runs as its own process.

Requests are sent on a fixed schedule that does not slow down when the
server does: request ``i`` is due at ``start + i / rate``, whether or not
earlier replies have come back, so time spent queued behind a stall counts.
A request's latency runs from its due time, or from its send when the
generator itself sent it late: the sender never waits for the server, so a
late send is the generator's own delay (its core taken by the host), not
the program's.  How late the generator ran is reported as well.

One sender thread sleeps until each due time and writes the request; one
receiver thread per connection reads the replies in order.  Queries go
round-robin over ``--connections`` connections; one more connection sends
``ping`` requests at ``PING_RATE``, whose round trip measures the wire and
the event loop without a solve.

Protocol with the parent: connect, print ``ready``, read the start time
(``time.time()`` seconds) from stdin, run, print one JSON report.

    python3 streambench/loadgen.py --port 5000 --rate 80 --seconds 20 \
        --connections 2 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import socket
import sys
import threading
import time

import numpy as np

from common import valid_centers

KS = (10, 20, 30)
#: ``ping`` requests a second, on a connection of their own.
PING_RATE = 20.0
#: A reply that has not come this many seconds after its due time fails.
TIMEOUT_S = 5.0
#: The centers of every n-th answer are kept for the quality check.
SAMPLE_EVERY = 25


def check_answer(response: dict, k: int) -> str | None:
    """Why an ``ok`` answer is malformed, or None when it is well formed."""
    if response.get("k") != k:
        return f"asked k={k}, answer has k={response.get('k')}"
    if not valid_centers(response.get("centers"), k):
        return f"k={k} answer does not hold {k} finite centers of the stream's dimension"
    answer_cost = response.get("cost")
    if not isinstance(answer_cost, (int, float)) or not answer_cost > 0:
        return f"cost {answer_cost!r} is not positive"
    return None


class Connection:
    """One TCP connection: requests go out in order, replies come back in order."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = self.sock.makefile("rb")
        self.pending: queue.SimpleQueue = queue.SimpleQueue()
        self.replies: list[tuple[tuple, float, bytes]] = []
        #: (due time since the start in s, latency in us) per answered query.
        self.latencies: list[tuple[float, float]] = []
        self.ping_rtt_us: list[float] = []
        self.failures: dict[str, int] = {}
        self.invalid: list[str] = []
        self.samples: list[dict] = []

    def fail(self, code: str) -> None:
        self.failures[code] = self.failures.get(code, 0) + 1

    def receive(self) -> None:
        """Read each reply and stamp its arrival (receiver thread).

        Replies are parsed after the run: parsing here would hold the
        interpreter lock while the sender thread is due to send.
        """
        while (item := self.pending.get()) is not None:
            due = item[0]
            self.sock.settimeout(max(due + TIMEOUT_S - time.perf_counter(), 0.001))
            try:
                line = self.lines.readline()
            except OSError:  # timed out: this and every later request fail
                self.fail("timeout")
                while self.pending.get() is not None:
                    self.fail("timeout")
                return
            self.replies.append((item, time.perf_counter(), line))

    def check_replies(self, start: float) -> None:
        """Sort the replies into latencies, failures and malformed answers."""
        answered = 0
        for (due, sent, k), now, line in self.replies:
            if not line:
                self.fail("closed")
                continue
            response = json.loads(line)
            if not response.get("ok"):
                self.fail(str(response.get("code")))
                continue
            if k == 0:
                self.ping_rtt_us.append((now - sent) * 1e6)
                continue
            self.latencies.append((due - start, (now - max(due, sent)) * 1e6))
            problem = check_answer(response, k)
            if problem is not None:
                self.invalid.append(problem)
                continue
            if answered % SAMPLE_EVERY == 0:
                self.samples.append({"k": k, "centers": response["centers"]})
            answered += 1


def send_all(schedule, conns, lateness_us: list[float]) -> None:
    """Send every request at its due time; ``schedule`` is sorted by due time."""
    for due, index, k in schedule:
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        if k == 0:
            line = b'{"op":"ping"}\n'
        else:
            line = b'{"op":"query","k":%d,"include_centers":true}\n' % k
            lateness_us.append((sent - due) * 1e6)
        conns[index].pending.put((due, sent, k))
        conns[index].sock.sendall(line)
    for conn in conns:
        conn.pending.put(None)


def run(args) -> dict:
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    rng = np.random.default_rng(args.seed)
    count = int(round(args.rate * args.seconds))
    # Every three requests in a row ask each k once, in a seeded order, so
    # each run and each window holds the same mix.
    ks = np.concatenate([rng.permutation(KS) for _ in range(-(-count // len(KS)))])
    pings = int(round(PING_RATE * args.seconds))
    conns = [Connection(args.host, args.port) for _ in range(args.connections + 1)]
    print("ready", flush=True)
    start_wall = float(sys.stdin.readline())
    start = time.perf_counter() + (start_wall - time.time())
    # Queries go round-robin over the first connections, pings (k=0) over
    # the last one.
    schedule = [
        (start + i / args.rate, i % args.connections, int(ks[i])) for i in range(count)
    ] + [(start + j / PING_RATE, args.connections, 0) for j in range(pings)]
    schedule.sort()
    receivers = [threading.Thread(target=conn.receive) for conn in conns]
    for receiver in receivers:
        receiver.start()
    lateness_us: list[float] = []
    try:
        send_all(schedule, conns, lateness_us)
    finally:
        for receiver in receivers:
            receiver.join()
        for conn in conns:
            conn.sock.close()
    for conn in conns:
        conn.check_replies(start)
    failures: dict[str, int] = {}
    for conn in conns:
        for code, n in conn.failures.items():
            failures[code] = failures.get(code, 0) + n
    return {
        "attempted": count + pings,
        "failed": sum(failures.values()),
        "codes": failures,
        "latencies": [pair for conn in conns for pair in conn.latencies],
        "lateness_us": lateness_us,
        "ping_rtt_us": [rtt for conn in conns for rtt in conn.ping_rtt_us],
        "invalid": [problem for conn in conns for problem in conn.invalid],
        "samples": [sample for conn in conns for sample in conn.samples],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True, help="queries per second")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, help="run on this core only")
    print(json.dumps(run(parser.parse_args())), flush=True)


if __name__ == "__main__":
    main()
