#!/usr/bin/env python3
"""The benchmark of the paths users hit (see README.md next to this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The program is built from source
into .bench_build/; inputs, set-up artifacts, results and span dumps go
to .perfbench/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's details (environment stamp, sample counts, tail percentile).

Workloads:
  cold_query     fresh `xqp query -f store.xqdb --json Q` per request
  warm_large     in-process Session over the same store, closed loop

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
measures the workload half untraced and half traced (the difference is the
tracing overhead), then runs the layer probes, which time each layer's
public functions and record a span around every call. One probe drives
`xqp serve --domains 1` with two keep-alive users in an open loop; another
runs a sharded corpus through the catalog and scatter-gather.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.parse

BUILD_DIR = ".bench_build"
WORK = ".perfbench"
XQP = os.path.join(BUILD_DIR, "default", "bin", "xqp.exe")
PROBE = os.path.join(BUILD_DIR, "default", "perfbench", "probe.exe")

# The 13 workload texts: Q1-Q6 (lib/workload/queries.ml auction_paths)
# and C1-C7 (auction_complexity_sweep).
QUERIES = [
    "/site/regions/africa/item/name",
    "//item/name",
    "/site/people/person[address/city][profile]/name",
    "//open_auction[bidder/increase > 20]/current",
    "//description//listitem//text",
    "//person[profile/@income > 60000]/name",
    "//person",
    "//person/name",
    "/site/people/person/name",
    "/site/people/person[address]/name",
    "/site/people/person[address/city][profile/@income]/name",
    "//open_auction[bidder/date][itemref]/current",
    "//regions//item[location][quantity]/description//text",
]
# Corpus extras: one dispatches to the single shard holding the bib
# documents, the other is pruned on every shard.
CORPUS_EXTRA = ["//book/title", "//nosuchtag"]
TEMPLATE = "//person[profile/@income > {}]/name"

LARGE = 300000          # auction scale of cold_query / warm_large (~325k nodes)
SERVE_SCALE = 30000     # auction scale served by the serve probe
CORPUS_DOCS = 16        # auction:20000 documents in the corpus ...
CORPUS_SCALE = 20000
CORPUS_BIBS = 2         # ... plus bib documents, packed last (one shard)
CORPUS_BOOKS = 2000
CORPUS_SHARDS = 4

# Serve probe: offered load, about a quarter of one worker's capacity on
# this mix; 30% of requests are templates over a pool of N values four
# times the plan cache's 128 entries, so they mostly miss it.
SERVE_RATE = 30.0       # requests per second, both users together
SERVE_TEMPLATE_SHARE = 0.3
SERVE_POOL = 512
SERVE_USERS = 2
LATE_LIMIT_MS = 100.0   # generator lateness p99 past which a run is invalid

# Latency limit per workload (and for the serve probe): a request answered
# later counts as failed.
LIMIT_MS = {"cold_query": 5000.0, "warm_large": 1000.0}
SERVE_LIMIT_MS = 1000.0
SETUPS = 3              # set-ups per run; setup_s is their median
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0]
# The tail percentile per workload: the highest ladder step with at least
# ten samples beyond it at the sample count a slow host still reaches in
# one run (cold_query: two rotations, 26 requests; warm_large: over 400).
# Fixed, so a faster host does not move the tail to another percentile.
TAIL_FROM = {"cold_query": 60.0, "warm_large": 95.0}
COLD_MIN_ROTATIONS = 2
LAYERS = ["cli", "core", "xml", "storage", "xpath", "algebra", "physical", "corpus"]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


class Invalid(Exception):
    """The measurement itself failed (not the program): no result is printed."""


# --- process helpers ----------------------------------------------------------

def run_json(args, what):
    """Run a helper to completion; its last stdout line is a JSON object."""
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise Invalid(f"{what} failed ({p.returncode}): {p.stderr.strip()[-800:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def timed(args, what):
    t0 = time.perf_counter()
    p = subprocess.run(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    dt = time.perf_counter() - t0
    if p.returncode != 0:
        raise Invalid(f"{what} failed ({p.returncode}): {p.stderr.strip()[-800:]}")
    return dt


def spawn_measured(args):
    """Run a child to completion; return (stdout bytes, exit code, peak RSS MB)."""
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return out, p.returncode, ru.ru_maxrss / 1024.0


def build():
    for f in ("dune-project", "bin/xqp.ml", "perfbench/probe.ml"):
        if not os.path.isfile(f):
            raise Invalid(f"not a source checkout: {f} is missing")
    # No shared dune cache: the build stays inside the checkout.
    p = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                        "./bin/xqp.exe", "./perfbench/probe.exe"],
                       env=dict(os.environ, DUNE_CACHE="disabled"),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise Invalid("build failed:\n" + p.stdout[-2000:])


# --- answers and statistics --------------------------------------------------

def digest(items):
    """The answer digest shared with probe.ml: MD5 over "<bytes>:<item>"."""
    h = hashlib.md5()
    for s in items:
        b = s.encode("utf-8")
        h.update(str(len(b)).encode() + b":" + b)
    return h.hexdigest()


def load_oracle(path):
    table = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            count, dg, q = line.rstrip("\n").split("\t", 2)
            table[q] = (int(count), dg)
    return table


def check(oracle, q, results):
    count, dg = oracle[q]
    return len(results) == count and digest(results) == dg


def nearest_rank(sorted_v, p):
    return sorted_v[max(1, math.ceil(p / 100.0 * len(sorted_v))) - 1]


def tail(values, start):
    """(percentile, value, samples beyond): the first ladder percentile from
    [start] down with at least ten samples beyond it (p50 when there are
    too few)."""
    s = sorted(values)
    for p in TAIL_LADDER[TAIL_LADDER.index(start):]:
        k = max(1, math.ceil(p / 100.0 * len(s)))
        if len(s) - k >= 10 or p == 50.0:
            return p, s[k - 1], len(s) - k
    raise AssertionError


def median(v):
    return statistics.median(v) if v else float("nan")


def host_loop_ms():
    """A fixed CPU loop: recorded at the start and end of each run so host
    drift is visible. Never used to scale a metric."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return (time.perf_counter() - t0) * 1000.0


# --- inputs -------------------------------------------------------------------

def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def gen(kind, size, seed, path):
    """Generate one document in its own process (never the measured one).
    Inputs depend only on (kind, size, seed), so they are cached."""
    if not os.path.exists(path):
        run_json([PROBE, "gen", kind, str(size), str(seed), path + ".tmp"], "gen")
        os.replace(path + ".tmp", path)
    return path


def oracle_file(queries, xmls):
    """(query file, oracle file): Reference-engine answers for [queries] over
    [xmls] (concatenated in order), computed in a separate process, outside
    any timing, and cached."""
    key = hashlib.sha1(("\n".join(queries) + "\0" + "\n".join(xmls)).encode()).hexdigest()[:16]
    path = cache_path(f"oracle-{key}.tsv")
    qfile = path + ".queries"
    if not os.path.exists(path):
        write_lines(qfile, queries)
        run_json([PROBE, "oracle", qfile, path + ".tmp"] + xmls, "oracle")
        os.replace(path + ".tmp", path)
    return qfile, path


def oracle_for(queries, xmls):
    return load_oracle(oracle_file(queries, xmls)[1])


def cache_path(name):
    d = os.path.join(WORK, "cache")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


def large_xml(seed):
    return gen("auction", LARGE, seed, cache_path(f"auction-{LARGE}-{seed}.xml"))


def serve_xml(seed):
    return gen("auction", SERVE_SCALE, seed, cache_path(f"auction-{SERVE_SCALE}-{seed}.xml"))


def corpus_xmls(seed):
    docs = [gen("auction", CORPUS_SCALE, seed * 100 + i,
                cache_path(f"auction-{CORPUS_SCALE}-{seed * 100 + i}.xml"))
            for i in range(CORPUS_DOCS)]
    docs += [gen("bib", CORPUS_BOOKS, seed * 100 + 50 + i,
                 cache_path(f"bib-{CORPUS_BOOKS}-{seed * 100 + 50 + i}.xml"))
             for i in range(CORPUS_BIBS)]
    return docs


def index(xml, store, reps):
    """Pack the XML into .xqdb with the CLI [reps] times; median wall seconds."""
    return median([timed([XQP, "index", "-f", xml, "-o", store], "xqp index") for _ in range(reps)])


def pack_corpus(xmls, catalog):
    timed([XQP, "pack", "--corpus", "--shards", str(CORPUS_SHARDS), "-o", catalog] + xmls, "xqp pack")


def rundir(name):
    d = os.path.join(WORK, "run", name)
    os.makedirs(d, exist_ok=True)
    return d


# --- spans (load-process side) -----------------------------------------------

class Spans:
    """Spans recorded by this process around calls into the program, merged
    with the probes' spans and written out at the end of a traced run."""

    def __init__(self):
        self.spans = []
        self.next = 0

    def add(self, name, t0, t1, parent, req):
        self.next += 1
        self.spans.append({"id": self.next, "name": name, "t0": t0, "t1": t1,
                           "parent": parent, "req": req, "proc": "load"})
        return self.next

    def merge(self, proc, spans):
        for s in spans:
            s = dict(s, proc=proc)
            self.spans.append(s)

    def self_times(self):
        """Per layer: span duration minus the part its children cover."""
        children = {}
        for s in self.spans:
            children.setdefault((s["proc"], s["parent"]), []).append(s)
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            if layer not in out:
                continue
            covered = sum(c["t1"] - c["t0"] for c in children.get((s["proc"], s["id"]), []))
            out[layer] += max(0.0, (s["t1"] - s["t0"]) - covered) * 1000.0
        return out


# --- cold_query ----------------------------------------------------------------

def cold_loop(store, oracle, seed, seconds, min_rotations, limit_ms, spans=None, req0=0):
    """Closed loop, one fresh CLI process per request, whole rotations of
    the 13 texts in a seeded order, so every run times the same query mix.
    The rotation count is how many first rotations fit in the run (at least
    [min_rotations])."""
    rng = random.Random(seed)
    lat, rss = [], []
    ok = answered = wrong = 0
    t0 = time.perf_counter()
    rotations, target = 0, None
    req = req0
    while target is None or rotations < target:
        order = QUERIES[:]
        rng.shuffle(order)
        for q in order:
            req += 1
            s0 = time.time()
            a = time.perf_counter()
            out, code, peak = spawn_measured([XQP, "query", "-f", store, "--json", q])
            ms = (time.perf_counter() - a) * 1000.0
            if spans is not None:
                root = spans.add("bench.request", s0, time.time(), 0, req)
                spans.add("cli.query", s0, s0 + ms / 1000.0, root, req)
            lat.append(ms)
            rss.append(peak)
            good = False
            if code == 0:
                answered += 1
                d = json.loads(out)
                good = d.get("status") == "ok" and check(oracle, q, d["results"])
                wrong += not good
            ok += good and ms <= limit_ms
        rotations += 1
        if target is None:
            target = max(min_rotations, math.floor(seconds / (time.perf_counter() - t0)))
    return {"lat": lat, "ok": ok, "answered": answered, "wrong": wrong,
            "attempted": len(lat), "rss": max(rss)}


def cold_query(seed, seconds, trace):
    xml = large_xml(seed)
    oracle = oracle_for(QUERIES, [xml])
    store = os.path.join(rundir("cold_query"), "store.xqdb")
    setup = index(xml, store, SETUPS)
    limit = LIMIT_MS["cold_query"]
    if not trace:
        r = cold_loop(store, oracle, seed, seconds, COLD_MIN_ROTATIONS, limit)
        return r, setup, r["rss"], {"store": store, "xml": xml}
    spans = Spans()
    plain = cold_loop(store, oracle, seed, seconds / 2, 1, limit)
    traced = cold_loop(store, oracle, seed, seconds / 2, 1, limit, spans, 1_000_000)
    return (plain, traced, spans), setup, plain["rss"], {"store": store, "xml": xml}


# --- warm_large: the in-process closed loop ---------------------------------------

def probe_loop(path, queries, xmls, seed, seconds, limit_ms, trace, corrupt=None):
    qfile, ofile = oracle_file(queries, xmls)
    d = run_json([PROBE, "loop", path, qfile, ofile, repr(seconds), str(seed), repr(limit_ms),
                  str(SETUPS), "1" if trace else "0", corrupt or "-"], "probe loop")
    if not d["warm_ok"]:
        raise Invalid("warm-up answers disagree with the oracle")

    def outcome(o):
        return {"lat": o["lat_ms"], "ok": o["ok"], "answered": o["answered"],
                "wrong": o["answered"] - o["correct"], "attempted": len(o["lat_ms"])}
    return d, outcome(d["plain"]), (outcome(d["traced"]) if trace else None)


def warm_large(seed, seconds, trace):
    """Set-up is the packing plus the probe's open and warm-up; the probe's
    own peak RSS is the program's."""
    xml = large_xml(seed)
    store = os.path.join(rundir("warm_large"), "store.xqdb")
    pack_s = index(xml, store, SETUPS)
    d, plain, traced = probe_loop(store, QUERIES, [xml], seed, seconds, LIMIT_MS["warm_large"], trace)
    setup = pack_s + median(d["setup_ms"]) / 1000.0
    info = {"store": store, "xml": xml}
    if not trace:
        return plain, setup, d["vmhwm_mb"], info
    spans = Spans()
    spans.merge("loop", d["spans"])
    return (plain, traced, spans), setup, d["vmhwm_mb"], info


# --- the serve probe ---------------------------------------------------------------

class Server:
    """`xqp serve --domains 1` in its own process, on an ephemeral port."""

    def __init__(self, store):
        self.proc = subprocess.Popen([XQP, "serve", "-f", store, "--domains", "1", "--port", "0"],
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise Invalid(f"xqp serve did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.perf_counter() + 60
        while True:
            try:
                status, _, _ = http_get(self.port, "/health")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise Invalid("xqp serve never answered /health")
            time.sleep(0.005)

    def vmhwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Invalid("no VmHWM for the server")

    def metrics(self):
        _, _, body = http_get(self.port, "/metrics")
        out = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    out[name] = float(value)
                except ValueError:
                    pass
        return out

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def http_get(port, path, timeout=10.0):
    """One request on its own connection (Connection: close)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), head, body


def serve_schedule(seed, seconds):
    """Seeded Poisson arrivals over [0, seconds), dealt to the users in turn;
    70% workload texts, 30% templates over a seeded pool of N values."""
    rng = random.Random(seed)
    pool = rng.sample(range(20000, 100000), SERVE_POOL)
    sched, t = [], 0.0
    while True:
        t += rng.expovariate(SERVE_RATE)
        if t >= seconds:
            return sched
        if rng.random() < SERVE_TEMPLATE_SHARE:
            q = TEMPLATE.format(rng.choice(pool))
        else:
            q = rng.choice(QUERIES)
        sched.append((t, len(sched) % SERVE_USERS, q))


class User:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.queue = []          # due (t, q) not yet sent, in order
        self.inflight = None     # (due, sent, q)
        self.free_since = 0.0
        self.buf = b""


def open_loop(port, sched, oracle, seconds, limit_ms, spans=None, req0=0):
    """Each user owns one keep-alive connection and sends its next request
    when it is due and the connection is free (HTTP/1.1, no pipelining).
    Latency runs from the due time. A request not answered within the
    limit — including one a starved connection never gets to send — is a
    failed request."""
    # select(2) takes microsecond timeouts (epoll rounds up to a
    # millisecond), so sends go out on schedule without busy-polling.
    sel = selectors.SelectSelector()
    users = []
    for _ in range(SERVE_USERS):
        u = User(port)
        users.append(u)
        sel.register(u.sock, selectors.EVENT_READ, u)
    for t, k, q in sched:
        users[k].queue.append((t, q))
    for u in users:
        u.queue.reverse()        # pop() from the end = earliest due
    done, late = [], []
    start = time.perf_counter()
    wall0 = time.time()
    end = seconds + limit_ms / 1000.0
    req = req0
    while True:
        now = time.perf_counter() - start
        for u in users:
            if u.inflight is None and u.queue and u.queue[-1][0] <= now:
                due, q = u.queue.pop()
                if now - due > limit_ms / 1000.0:
                    continue     # already past its limit: counted as failed below
                late.append((now - max(due, u.free_since)) * 1000.0)
                path = "/query?q=" + urllib.parse.quote(q, safe="")
                u.sock.setblocking(True)
                u.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
                u.sock.setblocking(False)
                u.inflight = (due, now, q)
        if now >= end or not any(u.queue or u.inflight for u in users):
            break
        nxt = min([u.queue[-1][0] for u in users if u.inflight is None and u.queue] + [end])
        for key, _ in sel.select(timeout=max(0.0, nxt - now)):
            u = key.data
            try:
                chunk = u.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not chunk:
                raise Invalid("server closed a keep-alive connection")
            u.buf += chunk
            head, sep, rest = u.buf.partition(b"\r\n\r\n")
            if not sep:
                continue
            length = 0
            for line in head.split(b"\r\n")[1:]:
                k, _, v = line.partition(b":")
                if k.strip().lower() == b"content-length":
                    length = int(v)
            if len(rest) < length:
                continue
            body, u.buf = rest[:length], rest[length:]
            t = time.perf_counter() - start
            due, sent, q = u.inflight
            u.inflight = None
            u.free_since = t
            req += 1
            if spans is not None:
                root = spans.add("bench.request", wall0 + due, wall0 + t, 0, req)
                spans.add("core.http_query", wall0 + sent, wall0 + t, root, req)
            done.append({"q": q, "due": due, "sent": sent, "t": t, "body": body,
                         "status": int(head.split(b" ", 2)[1])})
    for u in users:
        sel.unregister(u.sock)
        u.sock.close()
    sel.close()
    lat, resp = [], []
    ok = wrong = 0
    for r in done:
        ms = (r["t"] - r["due"]) * 1000.0
        lat.append(ms)
        d = json.loads(r["body"]) if r["status"] == 200 else {}
        good = d.get("status") == "ok" and check(oracle, r["q"], d["results"])
        wrong += not good
        ok += good and ms <= limit_ms
        if good:
            resp.append({"client_ms": (r["t"] - r["sent"]) * 1000.0, "queue_ms": d.get("queue_ms", 0.0),
                         "time_ms": d["time_ms"], "cache": d["cache"], "bytes": len(r["body"])})
    return {"lat": lat, "ok": ok, "answered": len(done), "wrong": wrong, "attempted": len(sched),
            "late": late, "resp": resp}


def serve_inputs(seed, seconds):
    xml = serve_xml(seed)
    sched = serve_schedule(seed, seconds)
    queries = sorted(set(QUERIES) | {q for _, _, q in sched})
    return xml, sched, oracle_for(queries, [xml])


def serve_session(server, sched, oracle, seconds, spans=None, req0=0):
    before = server.metrics()
    t0 = time.perf_counter()
    r = open_loop(server.port, sched, oracle, seconds, SERVE_LIMIT_MS, spans, req0)
    wall = time.perf_counter() - t0
    r["hwm"] = server.vmhwm_mb()
    after = server.metrics()
    r["server"] = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in
                   ("xqp_serve_rejected_total", "xqp_serve_timeouts_total",
                    "xqp_serve_domain_0_busy_us_total")}
    r["server_wall_s"] = wall
    late = sorted(r["late"])
    r["late_p99"] = nearest_rank(late, 99.0) if late else 0.0
    if r["late_p99"] > LATE_LIMIT_MS:
        raise Invalid(f"generator fell behind its schedule: late p99 {r['late_p99']:.1f} ms")
    return r


# --- layer probes (traced runs) ------------------------------------------------------

def median_fields(samples):
    keys = [k for k in samples[0] if k != "spans"]
    return {k: median([s[k] for s in samples]) for k in keys}


def server_layer(r):
    resp = r["resp"]
    busy = r["server"]["xqp_serve_domain_0_busy_us_total"] / 1e6
    return {
        "server.queue_ms_p50": median([x["queue_ms"] for x in resp]),
        "server.exec_ms_p50": median([x["time_ms"] for x in resp]),
        "server.http_ms_p50": median([x["client_ms"] - x["queue_ms"] - x["time_ms"] for x in resp]),
        "server.response_kb": statistics.mean(x["bytes"] for x in resp) / 1024.0,
        "server.busy_ratio": busy / r["server_wall_s"],
        "server.rejected": r["server"]["xqp_serve_rejected_total"],
        "server.timed_out": r["server"]["xqp_serve_timeouts_total"],
        # The second keep-alive user never gets the only worker (it stays
        # pinned until the first connection idles for 5 s): its requests
        # fail, so this sits near 0.5 while that defect stands.
        "server.success_rate": r["ok"] / r["attempted"],
        "physical.plan_cache_hit_ratio": sum(x["cache"] == "hit" for x in resp) / len(resp),
        "client.late_ms_p99": r["late_p99"],
    }


ENGINES = ["navigation", "nok", "twigstack", "pathstack", "binary-default", "binary-best"]

# Every per-layer metric a traced run prints, with its unit. The probes
# must produce exactly this set (checked), whatever the workload.
PER_LAYER = dict(
    [(k, "ms") for k in ("core.open_ms", "storage.load_ms", "storage.to_tree_ms", "xml.of_tree_ms",
                         "physical.stats_build_ms", "physical.first_query_ms",
                         "physical.store_build_ms", "physical.content_index_build_ms",
                         "xml.parse_ms", "storage.pack_ms")]
    + [("core.open_alloc_mb", "MB"), ("core.open_live_mb", "MB"),
       ("storage.bytes_per_xml_byte", "ratio")]
    + [(f"physical.exec_ms.{e}", "ms") for e in ENGINES]
    + [(f"physical.plans.{e}", "count") for e in ENGINES]
    + [("physical.compile_hit_us", "us"), ("xml.serialize_ms", "ms"),
       ("obs.recorder_us_per_query", "us"), ("core.alloc_words_per_query", "words"),
       ("core.major_gcs_per_1k", "count")]
    + [("xpath.parse_us", "us"), ("algebra.rewrite_us", "us"), ("physical.plan_us", "us"),
       ("physical.plan_cache_hit_ratio", "ratio")]
    + [("server.queue_ms_p50", "ms"), ("server.exec_ms_p50", "ms"), ("server.http_ms_p50", "ms"),
       ("server.response_kb", "KB"), ("server.busy_ratio", "ratio"), ("server.rejected", "count"),
       ("server.timed_out", "count"), ("server.success_rate", "ratio"), ("client.late_ms_p99", "ms")]
    + [("storage.catalog_load_ms", "ms"), ("corpus.materialize_ms", "ms"),
       ("corpus.shards_dispatched_per_query", "count"), ("corpus.shards_pruned_per_query", "count"),
       ("corpus.coord_ms", "ms"), ("corpus.shard_ms", "ms"), ("corpus.speedup_2v1", "ratio")]
    + [("trace.overhead.latency_p50_ms", "ms"), ("trace.overhead.latency_tail_ms", "ms"),
       ("trace.overhead.throughput_qps", "1/s"), ("trace.overhead.success_rate", "ratio"),
       ("trace.tail_percentile", "%"), ("trace.samples", "count"),
       ("env.host_loop_ms_start", "ms"), ("env.host_loop_ms_end", "ms")]
    + [(f"self_ms.{layer}", "ms") for layer in LAYERS])

# The cold probe's first query: a descendant navigation plan, so it pays
# the lazy navigation hints.
FIRST_QUERY = "//person"


def layer_probes(seed, info, spans):
    """Every layer's probe, whatever the workload: the same per-layer
    metric set comes out of every traced run. Both workloads pack the
    large document; the probes reuse that store."""
    m = {}
    large, store = info["xml"], info["store"]
    qfile = cache_path("queries13.txt")
    write_lines(qfile, QUERIES)

    # storage / xml / core open path: a fresh process per sample.
    whole, pieces = [], []
    for i in range(2):
        d = run_json([PROBE, "cold", "whole", store, FIRST_QUERY], "probe cold whole")
        spans.merge(f"cold-whole-{i}", d["spans"])
        whole.append(d)
        d = run_json([PROBE, "cold", "pieces", store, FIRST_QUERY], "probe cold pieces")
        spans.merge(f"cold-pieces-{i}", d["spans"])
        pieces.append(d)
    m.update(median_fields(whole))
    m.update(median_fields(pieces))
    packs = []
    for i in range(2):
        d = run_json([PROBE, "pack", large, os.path.join(rundir("layers"), "pack.xqdb")], "probe pack")
        spans.merge(f"pack-{i}", d["spans"])
        packs.append(d)
    m.update(median_fields(packs))

    # physical execution on the warm store.
    d = run_json([PROBE, "physical", store, qfile, "5"], "probe physical")
    spans.merge("physical", d["spans"])
    for e in ENGINES:
        m[f"physical.plans.{e}"] = d["plans"].get(e, 0)
        m[f"physical.exec_ms.{e}"] = d["exec_ms"].get(e, 0.0)
    for k in ("xml.serialize_ms", "physical.compile_hit_us", "obs.recorder_us_per_query",
              "core.alloc_words_per_query", "core.major_gcs_per_1k"):
        m[k] = d[k]

    # planning the serve templates, and the server itself.
    sxml, sched, soracle = serve_inputs(seed, 8.0)
    sstore = os.path.join(rundir("layers"), "serve.xqdb")
    index(sxml, sstore, 1)
    tfile = cache_path(f"templates-{seed}.txt")
    write_lines(tfile, sorted({q for _, _, q in sched if q not in QUERIES}))
    d = run_json([PROBE, "plan", sstore, tfile], "probe plan")
    spans.merge("plan", d["spans"])
    m.update({k: d[k] for k in ("xpath.parse_us", "algebra.rewrite_us", "physical.plan_us")})
    server = Server(sstore)
    try:
        r = serve_session(server, [s for s in sched if s[0] < 4.0], soracle, 4.0, spans, 2_000_000)
    finally:
        server.stop()
    m.update(server_layer(r))

    # catalog and scatter-gather.
    catalog = os.path.join(rundir("layers"), "corpus.xqdbc")
    pack_corpus(corpus_xmls(seed), catalog)
    cfile = cache_path("queries-corpus.txt")
    write_lines(cfile, QUERIES + CORPUS_EXTRA)
    d = run_json([PROBE, "corpus", catalog, cfile, "1.0"], "probe corpus")
    spans.merge("corpus", d["spans"])
    m.update({k: v for k, v in d.items() if k != "spans"})
    return m


# --- metrics --------------------------------------------------------------------------

def e2e(workload, r, setup_s, resident_mb):
    answered = r["lat"]
    p, tv, beyond = tail(answered, TAIL_FROM[workload])
    metrics = {
        "latency_p50_ms": (median(answered), "ms"),
        "latency_tail_ms": (tv, "ms"),
        # Correct answers per second of request time: the load process's
        # own answer checking between requests is not counted.
        "throughput_qps": (r["ok"] / (sum(answered) / 1000.0), "1/s"),
        "success_rate": (r["ok"] / r["attempted"], "ratio"),
        "resident_mb": (resident_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    details = {"samples": len(answered), "tail_percentile": p, "tail_samples_beyond": beyond,
               "attempted": r["attempted"], "answered": r["answered"], "wrong": r["wrong"]}
    return metrics, details


def env_stamp(seed, workload, inputs):
    def cmd(args):
        try:
            return subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True).stdout.strip()
        except OSError:
            return ""
    commit = cmd(["git", "rev-parse", "HEAD"])
    if not commit:
        h = hashlib.sha1()
        for top in ("bin", "lib", "perfbench"):
            for d, _, files in sorted(os.walk(top)):
                for f in sorted(files):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
        commit = "tree:" + h.hexdigest()[:16]
    return {"commit": commit, "nproc": os.cpu_count(), "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"])
            or cmd(["ocamlopt", "-version"]), "seed": seed, "workload": workload,
            "inputs": {os.path.basename(p): os.path.getsize(p) for p in inputs}}


WORKLOADS = {"cold_query": cold_query, "warm_large": warm_large}


def run(workload, seed, seconds, trace):
    host0 = median([host_loop_ms() for _ in range(3)])
    result, setup_s, resident, info = WORKLOADS[workload](seed, seconds, trace)
    details = {}
    if not trace:
        r = result
        metrics, details = e2e(workload, r, setup_s, resident)
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        correct = r["wrong"] == 0
        attempted, failed = r["attempted"], r["attempted"] - r["ok"]
    else:
        plain, traced, spans = result
        mp, _ = e2e(workload, plain, setup_s, resident)
        mt, details = e2e(workload, traced, setup_s, resident)
        layer = layer_probes(seed, info, spans)
        for k in ("latency_p50_ms", "latency_tail_ms", "throughput_qps", "success_rate"):
            layer[f"trace.overhead.{k}"] = mt[k][0] - mp[k][0]
        layer["trace.tail_percentile"] = details["tail_percentile"]
        layer["trace.samples"] = details["samples"]
        for k, v in spans.self_times().items():
            layer[f"self_ms.{k}"] = v
        host1 = median([host_loop_ms() for _ in range(3)])
        layer["env.host_loop_ms_start"] = host0
        layer["env.host_loop_ms_end"] = host1
        if set(layer) != set(PER_LAYER):
            raise Invalid(f"per-layer metric set mismatch: {sorted(set(layer) ^ set(PER_LAYER))}")
        out_metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
        correct = plain["wrong"] == 0 and traced["wrong"] == 0
        attempted = plain["attempted"] + traced["attempted"]
        failed = attempted - plain["ok"] - traced["ok"]
        path = os.path.join(WORK, "results", f"spans-{workload}-seed{seed}-{int(time.time())}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(spans.spans, f)
        details["spans_file"] = path
    if not trace:
        host1 = median([host_loop_ms() for _ in range(3)])
    details["env"] = env_stamp(seed, workload, [info["xml"], info["store"]])
    details["host_loop_ms"] = {"start": host0, "end": host1}
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{int(trace)}-{int(time.time())}.json"),
              "w") as f:
        # The raw latencies (in request order) let a later reader compute
        # other statistics from the same run.
        json.dump({"result": out, "details": details,
                   "latency_ms": (result if not trace else result[0])["lat"]}, f)
    return out, details


# --- self-test -------------------------------------------------------------------------

def selftest():
    """The output check must be able to fail: corrupting one expected digest
    must drop success_rate, in the in-process check (probe.ml) and in the
    CLI/HTTP check (this file)."""
    seed, q = 7, QUERIES[0]
    xml = gen("auction", SERVE_SCALE, seed, cache_path(f"auction-{SERVE_SCALE}-{seed}.xml"))
    store = os.path.join(rundir("selftest"), "store.xqdb")
    index(xml, store, 1)
    rates = {}
    for corrupt in (None, q):
        _, r, _ = probe_loop(store, QUERIES, [xml], seed, 1.0, 1000.0, False, corrupt)
        oracle = oracle_for(QUERIES, [xml])
        if corrupt:
            oracle[corrupt] = (oracle[corrupt][0], "0" * 32)
        c = cold_loop(store, oracle, seed, 0.0, 1, 5000.0)
        rates[corrupt or "clean"] = (r["ok"] / r["attempted"], c["ok"] / c["attempted"])
    clean, bad = rates["clean"], rates[q]
    log(f"selftest: in-process {clean[0]:.4f} -> {bad[0]:.4f}, cli {clean[1]:.4f} -> {bad[1]:.4f}")
    passed = clean == (1.0, 1.0) and bad[0] < 1.0 and bad[1] < 1.0
    print(json.dumps({"selftest": "pass" if passed else "FAIL",
                      "success_rate_clean": clean, "success_rate_corrupted": bad}))
    return 0 if passed else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        if a.selftest:
            return selftest()
        out, details = run(a.workload, a.seed, a.seconds, bool(a.trace))
    except Invalid as e:
        log(f"perfbench: invalid run: {e}")
        return 3
    print(json.dumps(details))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
