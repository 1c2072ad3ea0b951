"""Per-modulus value distribution and its closed-form prediction."""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
from math import gcd

import pytest
from conftest import child_env, run_python, traced_peak

from cotsum import core, distribution
from cotsum.distribution import SweepReport, closed_form_counts, sweep, sweep_range
from cotsum.errors import InvariantError, PreconditionError
from cotsum.totient import RangeBound, euler_phi, phi_range_direct


@pytest.mark.parametrize(
    "b,zero,plus,minus",
    [
        (2, 1, 0, 0),
        (4, 0, 1, 1),
        (5, 2, 1, 1),
        (7, 2, 2, 2),
    ],
)
def test_sweep_examples(b, zero, plus, minus):
    r = sweep(b)
    assert (r.count_zero, r.count_plus, r.count_minus) == (zero, plus, minus)
    assert (r.closed_zero, r.closed_plus, r.closed_minus) == (zero, plus, minus)
    assert r.consistent
    assert r.phi_b == euler_phi(b)


def test_sweep_counts_partition_phi():
    for b in range(2, 200):
        if b == 3:
            continue
        r = sweep(b)
        assert r.consistent
        assert r.count_zero + r.count_plus + r.count_minus == r.phi_b
        assert r.count_plus == r.count_minus


def test_sweep_tallies_equal_the_public_classifier():
    # the tally loop against core.classify rather than the closed forms
    index = {core.CotTag.ZERO: 0, core.CotTag.PLUS_HALF_B: 1, core.CotTag.MINUS_HALF_B: 2}
    for b in range(2, 301):
        if b == 3:
            continue
        tally = [0, 0, 0]
        for a in range(1, b):
            if gcd(a, b) == 1:
                tally[index[core.classify(a, b).tag]] += 1
        r = sweep(b)
        assert (r.count_zero, r.count_plus, r.count_minus) == tuple(tally), b


# Moduli longer than one sieve block (2^15 residues): 2 * 32771 meets its
# prime divisor 32771 only in the second block, the prime 65537 spans three
# blocks and the primorial 510510 = 2 * 3 * ... * 17 spans sixteen.
MULTI_BLOCK_MODULI = (65542, 65537, 510510)


def test_sweep_calls_kernel_and_tag_once_per_coprime_residue(monkeypatch):
    kernel, tag = distribution._kernel, distribution._tag
    residues = []
    tags = [0]

    def counting_kernel(a, b):
        residues.append(a)
        return kernel(a, b)

    def counting_tag(num, den, b):
        tags[0] += 1
        return tag(num, den, b)

    monkeypatch.setattr(distribution, "_kernel", counting_kernel)
    monkeypatch.setattr(distribution, "_tag", counting_tag)
    for b in (2, 4, 5, 12, 97, 210) + MULTI_BLOCK_MODULI:
        residues.clear()
        tags[0] = 0
        r = sweep(b)
        assert r.consistent, b
        # the residues the kernel saw, in order, are exactly the gcd-filtered ones
        coprime = [a for a in range(1, b) if gcd(a, b) == 1]
        assert residues == coprime, b
        assert tags[0] == len(coprime) == euler_phi(b), b
        tally = [0, 0, 0, 0]
        for a in coprime:
            tally[tag(*kernel(a, b), b)] += 1
        assert (r.count_zero, r.count_plus, r.count_minus, 0) == tuple(tally), b


def test_sweep_memory_stays_within_a_block():
    # 270270 = 2 * 3 * 5 * 7 * 11 * 13 * 9 is over eight blocks long; a sieve
    # holding one flag per residue of b would trace about 264 KiB
    b = 270270
    sweep(5)  # imports and caches warm
    r, peak = traced_peak(lambda: sweep(b))
    assert r.consistent
    assert peak < 96 * 2**10, peak


def test_sweep_reads_the_tag_binding(monkeypatch):
    tag = distribution._tag
    monkeypatch.setattr(distribution, "_tag", lambda num, den, b: 3 if b > 10 else tag(num, den, b))
    assert sweep(10).consistent
    for b in (11, 12, 97):
        r = sweep(b)
        assert not r.consistent
        assert (r.count_zero, r.count_plus, r.count_minus) == (0, 0, 0)


def test_closed_form_counts_example():
    assert closed_form_counts(10) == (sweep(10).count_zero, sweep(10).count_plus, sweep(10).count_minus)
    assert closed_form_counts(50)[0] + closed_form_counts(50)[1] + closed_form_counts(50)[2] == 20


def test_modulus_three_is_rejected():
    with pytest.raises(PreconditionError):
        sweep(3)
    with pytest.raises(PreconditionError):
        closed_form_counts(3)


def test_sweep_range_skips_three():
    reports = sweep_range(2, 6)
    assert [r.b for r in reports] == [2, 4, 5, 6]


def test_sweep_range_rejects_empty_or_bad():
    with pytest.raises(ValueError):
        sweep_range(5, 4)
    with pytest.raises(ValueError):
        sweep_range(1, 6)
    with pytest.raises(ValueError):
        sweep_range(2, 6, workers=0)


@pytest.mark.parametrize(
    "args",
    [(2, 10.0), (2, True), (2, 1), (2, "10"), (True, 10)],
)
def test_sweep_range_checks_both_ends(args):
    with pytest.raises(ValueError, match="modulus b"):
        sweep_range(*args)


def test_sweep_refuses_more_residues_than_the_ceiling(monkeypatch):
    # the closed-form residue count, sum of b - 1 over b != 3, passes at a
    # limit equal to it and is refused at one below it
    for b_lo, b_hi in ((2, 2), (2, 3), (2, 7), (3, 9), (4, 9), (5, 40)):
        count = sum(b - 1 for b in range(b_lo, b_hi + 1) if b != 3)
        monkeypatch.setattr(distribution, "_SWEEP_MAX", count)
        assert [rep.b for rep in sweep_range(b_lo, b_hi)] == [b for b in range(b_lo, b_hi + 1) if b != 3]
        monkeypatch.setattr(distribution, "_SWEEP_MAX", count - 1)
        with pytest.raises(ValueError) as info:
            sweep_range(b_lo, b_hi)
        assert str(info.value) == f"a sweep classifies at most {count - 1} residues, got {count} for b in [{b_lo}, {b_hi}]"
    monkeypatch.setattr(distribution, "_SWEEP_MAX", 3)
    assert sweep(4).b == 4
    with pytest.raises(ValueError, match="at most 3 residues, got 4 for b in \\[5, 5\\]"):
        sweep(5)


def test_sweep_ceiling_is_just_over_b_10000_from_2():
    # only just over the limit, and far over it: neither may start the work
    limit = distribution._SWEEP_MAX
    over = sum(b - 1 for b in range(2, 10002) if b != 3)
    assert sum(b - 1 for b in range(2, 10001) if b != 3) <= limit < over
    with pytest.raises(ValueError, match=f"at most {limit} residues, got {over} for"):
        sweep_range(2, 10001)
    with pytest.raises(ValueError, match=f"at most {limit} residues"):
        sweep_range(2, 10**10)
    with pytest.raises(ValueError, match=f"at most {limit} residues, got {limit + 1} for"):
        sweep(limit + 2)


@pytest.mark.parametrize("workers", [True, False, 2.0, "2", None])
def test_sweep_range_rejects_non_int_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        sweep_range(2, 6, workers=workers)


def test_sweep_range_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)  # so it forks on any host
    serial = sweep_range(2, 200)
    parallel = sweep_range(2, 200, workers=2)
    assert serial == parallel


@pytest.mark.parametrize(
    "workers,cpus,b_hi,started",
    [
        (100_000, 4, 50, [4]),  # capped by the CPU count
        (100_000, 64, 6, [4]),  # capped by the moduli 2, 4, 5, 6
        (3, 64, 50, [3]),  # workers is the smallest
        (100_000, 1, 50, []),  # one share: nothing forked
        (100_000, None, 50, []),  # an unknown CPU count counts as one
    ],
)
def test_sweep_range_starts_at_most_one_process_per_cpu_and_modulus(
    monkeypatch, fork_here, workers, cpus, b_hi, started
):
    # fork_here runs each child's share in this process and records its
    # moduli, so no process is ever started however large workers is;
    # started counts this process with the children it forks
    moduli = [b for b in range(2, b_hi + 1) if b != 3]
    serial = [sweep(b) for b in moduli]
    swept = []  # every modulus, in the order it was swept

    def logged_sweep(b):
        swept.append(b)
        return sweep(b)

    monkeypatch.setattr(distribution, "sweep", logged_sweep)
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: cpus)
    assert sweep_range(2, b_hi, workers=workers) == serial
    assert ([1 + len(fork_here)] if fork_here else []) == started
    # the moduli are dealt in snake order: the modulus at position j sits at
    # r = j % 2k in its run of 2k and goes to share min(r, 2k - 1 - r), each
    # share in order, so one share is every modulus in order. This process
    # sweeps share 0 itself, after forking the others
    k = 1 + len(fork_here)
    shares = [[b for j, b in enumerate(moduli) if min(j % (2 * k), 2 * k - 1 - j % (2 * k)) == i] for i in range(k)]
    assert fork_here == shares[1:]
    assert swept == [b for share in fork_here for b in share] + shares[0]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_snake_shares_hold_about_equal_counts_of_coprime_residues(monkeypatch, fork_here, k):
    # a modulus b costs one kernel call per coprime residue, euler_phi(b) of
    # them. Round-robin shares, moduli[i::k], are the bound no share may
    # pass; at k = 2 one of them is every odd modulus, 1.33 times the mean.
    # A stand-in sweep keeps the run cheap
    swept = []
    monkeypatch.setattr(distribution, "sweep", swept.append)
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: k)
    sweep_range(2, 1500, workers=k)
    shares = [swept[sum(map(len, fork_here)):], *fork_here]
    moduli = [b for b in range(2, 1501) if b != 3]
    assert len(shares) == k and sorted(sum(shares, [])) == moduli
    residues = [sum(map(euler_phi, share)) for share in shares]
    assert max(residues) <= max(sum(map(euler_phi, moduli[i::k])) for i in range(k)), residues
    if k in (2, 4):
        assert max(residues) <= 1.01 * sum(residues) / k, residues
    if k == 2:
        assert residues == [342273, 341906]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_range_of_no_modulus_is_empty_at_any_workers(monkeypatch, workers):
    # 3 is the only modulus in [3, 3] and is skipped, so there are no shares
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)
    assert sweep_range(3, 3, workers=workers) == []


# ---------------------------------------------------------------- fan-out


def _raise_at(item, exc):
    def fn(x):
        if x == item:
            raise exc
        return x

    return fn


def test_fan_out_runs_the_first_job_here_and_the_others_in_children():
    # a result larger than the 64 KiB pipe buffer must not stall the read
    big = bytes(range(256)) * 4096
    results = distribution._fan_out(lambda x: big if x == 2 else os.getpid(), [[0], [1], [2]])
    assert results[0] == os.getpid() and os.getpid() != results[1]
    assert results[2] == big


def test_fan_out_returns_results_in_item_order_across_interleaved_shares():
    # share 0 runs here and share 1 in a child; concatenating the shares'
    # results would give the items as 0, 2, 4, 1, 3
    here = os.getpid()
    results = distribution._fan_out(lambda x: (x, os.getpid()), [[0, 2, 4], [1, 3]])
    assert [x for x, _ in results] == [0, 1, 2, 3, 4]
    assert [pid == here for _, pid in results] == [True, False, True, False, True]


@pytest.mark.parametrize(
    "exc",
    [
        InvariantError("a child's identity broke"),
        ValueError("a child's argument", 7),
        # a battery check's failure: its detail and its counterexample
        InvariantError("detail", {"b": 5}),
    ],
    ids=["InvariantError", "ValueError", "check-failure"],
)
def test_fan_out_raises_a_childs_error_with_its_type_and_args(exc):
    with pytest.raises(type(exc)) as info:
        distribution._fan_out(_raise_at(1, exc), [[0], [1]])
    assert type(info.value) is type(exc) and info.value.args == exc.args


class _WontPickle(Exception):
    def __reduce__(self):
        raise TypeError("this error refuses to be pickled")


class _WontUnpickle(Exception):
    # pickle rebuilds an exception as type(exc)(*exc.args), one arg here
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize(
    "exc,message",
    [
        (_WontPickle("a child's error"), "_WontPickle: a child's error"),
        (_WontUnpickle("a child's error", 5), "_WontUnpickle: a child's error at 5"),
    ],
    ids=["dumps-fails", "loads-fails"],
)
def test_fan_out_names_a_childs_error_that_pickle_cannot_carry(exc, message):
    with pytest.raises(RuntimeError) as info:
        distribution._fan_out(_raise_at(1, exc), [[0], [1]])
    assert type(info.value) is RuntimeError and str(info.value) == f"a forked share raised {message}"


@pytest.mark.parametrize(
    "result,name",
    [(lambda: None, "<function "), (threading.Lock(), " _thread.lock object "), (_WontUnpickle("x", 5), "_WontUnpickle(")],
    ids=["dumps-fails-function", "dumps-fails-lock", "loads-fails"],
)
def test_fan_out_names_a_childs_result_that_pickle_cannot_carry(result, name):
    # the share's results arrive as a RuntimeError naming its list of them,
    # whose text names each result's type
    with pytest.raises(RuntimeError) as info:
        distribution._fan_out(lambda x: result if x == 2 else x, [[0], [1, 2, 3]])
    assert type(info.value) is RuntimeError and str(info.value) == f"a forked share returned list: {[1, result, 3]}"
    assert name in str(info.value)


def test_a_fork_that_fails_closes_its_pipe_and_kills_the_children_already_forked(monkeypatch):
    # os.fork is forked_children_reaped's recording wrapper, so that fixture
    # still checks that the first child is reaped
    fork, pipe, waitpid = os.fork, os.pipe, os.waitpid
    pipes, statuses = [], []

    def fork_once():
        if len(pipes) > 1:
            raise OSError(errno.EAGAIN, "no process for the second child")
        return fork()

    def recording_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def recording_waitpid(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    monkeypatch.setattr(distribution.os, "fork", fork_once)
    monkeypatch.setattr(distribution.os, "pipe", recording_pipe)
    monkeypatch.setattr(distribution.os, "waitpid", recording_waitpid)
    with pytest.raises(OSError, match="no process for the second child"):
        distribution._fan_out(lambda x: time.sleep(60) if x else x, [[0], [1], [2]])
    assert len(pipes) == 2
    for fd in pipes[1]:  # both ends of the pipe the failed fork was to use
        with pytest.raises(OSError):
            os.fstat(fd)
    assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL


def test_fan_out_child_that_dies_without_a_result_is_a_runtime_error():
    # os._exit(3) leaves the pipe empty; 768 is the wait status of exit code 3
    with pytest.raises(RuntimeError, match=r"^a forked share ended without a result \(wait status 768\)$"):
        distribution._fan_out(lambda x: os._exit(3) if x else 1, [[0], [1]])


_PARENT_RAISES = """
import os, time
from cotsum import distribution

def share(x):
    if x == 0:
        raise KeyError("this process's share")
    time.sleep(60)

try:
    distribution._fan_out(share, [[0], [1], [2]])
except KeyError as exc:
    print("raised", exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_fan_out_kills_and_reaps_its_children_when_this_process_share_raises():
    # in a fresh interpreter: the pytest process has a child of its own, the
    # acceptance battery, which os.waitpid(-1, ...) would see
    proc = run_python("-c", _PARENT_RAISES, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "raised \"this process's share\"\nno child left\n", "")


def test_the_caller_and_its_children_keep_the_callers_signal_dispositions():
    # SIGHUP ignored, as under nohup; the dispositions go through the pipe
    # as Handlers members, which pickle
    signals = (signal.SIGTERM, signal.SIGHUP)
    previous = [signal.signal(signum, handler) for signum, handler in zip(signals, (signal.SIG_DFL, signal.SIG_IGN))]
    try:
        during = distribution._fan_out(lambda x: [signal.getsignal(signum) for signum in signals], [[0], [1]])
        after = [signal.getsignal(signum) for signum in signals]
    finally:
        for signum, handler in zip(signals, previous):
            signal.signal(signum, handler)
    assert during == [[signal.SIG_DFL, signal.SIG_IGN]] * 2 and after == [signal.SIG_DFL, signal.SIG_IGN]


def test_a_childs_watch_polls_its_parent_and_leaves_once_the_parent_changes(monkeypatch):
    # _watch runs only in forked children, so here it runs on stand-ins: the
    # parent pid reads 100 twice, then 1, as when an orphan is adopted
    ppids, slept, exits = iter([100, 100, 1]), [], []

    def leave(code):
        exits.append(code)
        raise SystemExit(code)

    monkeypatch.setattr(distribution.os, "getppid", lambda: next(ppids))
    monkeypatch.setattr(distribution.time, "sleep", slept.append)
    monkeypatch.setattr(distribution.os, "_exit", leave)
    with pytest.raises(SystemExit):
        distribution._watch(100)
    assert slept == [distribution._WATCH_S] * 2 and exits == [1]


_SHARE_OUTLIVES_CALLER = """
import os, sys, time
from cotsum import distribution

def share(x):
    if x:
        print(os.getpid(), flush=True)
        time.sleep(2)
        open(sys.argv[1], "w").close()
    return x

distribution._fan_out(share, [[0], [1]])
"""

# a child ended at most 51 ms, about one _WATCH_S, after its signalled caller
# on a shared 2-vCPU host; 1 s leaves room for a loaded one and is half the
# share's sleep
_ENDED_S = 1.0


def _ended(pid: int) -> bool:
    """Whether pid is gone or a zombie within _ENDED_S seconds.

    An orphan's zombie stays until the process that adopted it reaps it,
    which this process cannot do, so /proc/<pid>/stat is read for its state.
    """
    deadline = time.monotonic() + _ENDED_S
    while True:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def _signal_mid_fan_out(tmp_path, signum: int) -> None:
    """Send signum to a fresh interpreter whose forked share sleeps 2 s and then writes a marker.

    The caller ends by the signal's own action, and within _ENDED_S its
    child is gone or a zombie: the marker never appears.
    """
    marker = tmp_path / "marker"
    with subprocess.Popen(
        [sys.executable, "-c", _SHARE_OUTLIVES_CALLER, str(marker)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    ) as proc:
        child = int(proc.stdout.readline())
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == -signum
        assert _ended(child)
    assert not marker.exists()


def test_a_sigterm_to_the_caller_ends_its_forked_shares(tmp_path):
    _signal_mid_fan_out(tmp_path, signal.SIGTERM)


def test_a_sigkill_to_the_caller_ends_its_forked_shares(tmp_path):
    _signal_mid_fan_out(tmp_path, signal.SIGKILL)


_SIGHUP_IGNORED = """
import os, signal, time
from cotsum import distribution

signal.signal(signal.SIGHUP, signal.SIG_IGN)

def share(x):
    if x:
        print(os.getpid(), flush=True)
        time.sleep(0.5)
    return x

print(distribution._fan_out(share, [[0], [1]]))
"""


def test_an_ignored_sighup_during_a_fan_out_leaves_the_run_to_finish():
    # as under nohup: the hangup reaches the whole process group, the caller
    # and its child alike
    with subprocess.Popen(
        [sys.executable, "-c", _SIGHUP_IGNORED],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), start_new_session=True,
    ) as proc:
        proc.stdout.readline()
        os.killpg(proc.pid, signal.SIGHUP)
        out, err = proc.communicate(timeout=30)
    assert (proc.returncode, out, err) == (0, "[0, 1]\n", "")


def test_without_os_fork_every_share_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(distribution.os, "cpu_count", lambda: 2)
    assert distribution._fan_out(lambda x: (x, os.getpid()), [[0, 2], [1]]) == [(x, os.getpid()) for x in range(3)]
    assert sweep_range(2, 60, workers=2) == sweep_range(2, 60)


def test_closed_form_counts_match_gcd_scan():
    def scan(b, lo, hi):
        return phi_range_direct(b, RangeBound(lo, hi)) if lo <= hi else 0

    for b in range(2, 301):
        if b == 3:
            continue
        want = (
            scan(b, (b + 3) // 3, (2 * b - 1) // 3),
            scan(b, 1, (b - 1) // 3),
            scan(b, (2 * b + 3) // 3, b - 1),
        )
        assert closed_form_counts(b) == want, b


def test_sweep_report_rejects_wrong_flag():
    with pytest.raises(InvariantError):
        SweepReport(b=5, phi_b=4, count_zero=2, count_plus=1, count_minus=1,
                    closed_zero=2, closed_plus=1, closed_minus=1, consistent=False)
