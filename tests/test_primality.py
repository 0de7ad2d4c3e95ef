"""is_prime and factor against the reference oracle at every tier boundary.

``is_prime`` decides by tiers: a table lookup up to 10**4, a gcd with the
product of the primes below 10**4, "prime" below 10007**2, then Miller-Rabin
over the shortest base prefix proven exact below n, and from 2**64 all 12
bases plus 64 derandomized rounds. ``factor`` records the cofactor left
when trial division stops at p*p > n as prime without a test. Each input
below sits where moving a tier's bound, or its base count, by one prime
changes a verdict; ``ref_is_prime`` and ``ref_factor`` are the code these
shortcuts replaced.

From ``_SPLIT_BITS`` bits a forked child tests half of the rounds after base
2. The tests of that split hold on one CPU too, where every round runs in
process; the three that need the child skip there.
"""

import functools
import math
import os
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import arith
from lacunary.arith import _MR_BASES, _SIEVED_BOUND, _SPLIT_BITS, _TRIAL_LIMIT, factor, is_prime
from lacunary.forge import build_congruence_system, find_prime

from oracles import ref_factor, ref_is_prime, trial_is_prime

# OEIS A014233: the least strong pseudoprime to the first k prime bases,
# k = 1..13 (k = 7, 8 and k = 9..11 share a value).
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981)

# (n, k): n is a strong pseudoprime to the first k bases, not to base k + 1,
# and has no prime factor below 10**4, so it reaches Miller-Rabin. Each lies
# in the tier that runs k + 1 bases (k = 12: the tier that adds 64 rounds),
# so one base fewer, or the tier below reaching one prime further, calls it
# prime. psi_4..psi_6 have factors below 10**4, so these stand in for them;
# the tier [psi_5, psi_6) has no entry, as a search over p * (m(p - 1) + 1)
# for small rational m found none there.
UNSCREENED_PSEUDOPRIMES = (
    (1157839381, 3),                  # 24061 * 48121, tier [10007**2, psi_4)
    (118670087467, 4),                # 172243 * 688969, tier [psi_4, psi_5)
    (32398013051587, 6),              # 2845963 * 11383849, tier [psi_6, psi_7)
    (341550071728321, 8),             # psi_7, tier [psi_7, psi_9)
    (3825123056546413051, 11),        # psi_9, tier [psi_9, 2**64)
    (318665857834031151167461, 12),   # psi_12, above 2**64
)

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              46657, 52633, 62745, 63973, 75361)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _chernick(count: int, k_min: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) for the first `count` k >= k_min with all three prime."""
    out = []
    k = k_min
    while len(out) < count:
        fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(ref_is_prime(f) for f in fs):
            out.append(fs[0] * fs[1] * fs[2])
        k += 1
    return out


def _assert_matches_reference(n: int) -> None:
    assert is_prime(n) == ref_is_prime(n), n
    if n >= 1:
        assert factor(n).factors == ref_factor(n), n


def test_trial_table_bounds():
    assert _TRIAL_LIMIT == 10**4
    least_above = next(p for p in range(_TRIAL_LIMIT + 1, 2 * _TRIAL_LIMIT) if trial_is_prime(p))
    assert _SIEVED_BOUND == least_above**2 == 10007**2
    assert max(p for p in range(_TRIAL_LIMIT) if trial_is_prime(p)) == 9973


def test_unscreened_pseudoprimes_are_what_they_claim():
    for n, k in UNSCREENED_PSEUDOPRIMES:
        assert min(p for p, _ in ref_factor(n)) > _TRIAL_LIMIT, n
        assert all(_strong_probable_prime(n, a) for a in _MR_BASES[:k]), n
        if k < len(_MR_BASES):
            assert not _strong_probable_prime(n, _MR_BASES[k]), n


@pytest.mark.parametrize("n", [n for n, _ in UNSCREENED_PSEUDOPRIMES])
def test_unscreened_pseudoprimes(n):
    assert not is_prime(n)
    _assert_matches_reference(n)


@pytest.mark.parametrize("psi", A014233)
def test_a014233_and_neighbours(psi):
    assert not is_prime(psi)
    for n in (psi - 2, psi - 1, psi, psi + 1, psi + 2):
        _assert_matches_reference(n)


def test_carmichael_numbers():
    chernick = _chernick(4, 1) + _chernick(3, 1667) + _chernick(2, 250_000)
    assert chernick[-1] > 2**64
    for n in CARMICHAEL + tuple(chernick):
        assert not is_prime(n), n
        _assert_matches_reference(n)


@pytest.mark.parametrize("n", [
    9973, 10007, _TRIAL_LIMIT - 1, _TRIAL_LIMIT, _TRIAL_LIMIT + 1,
    9973**2, 9973 * 10007, 10007**2 - 2, 10007**2 - 1, 10007**2, 10007**2 + 2,
    2 * 10007, 101**2, 97 * 101, 9973 * 2**61,
])
def test_trial_boundaries(n):
    _assert_matches_reference(n)


def test_trial_boundary_verdicts():
    assert is_prime(9973) and is_prime(10007)
    assert not is_prime(9973**2) and not is_prime(9973 * 10007) and not is_prime(10007**2)
    assert factor(9973 * 10007).factors == ((9973, 1), (10007, 1))
    assert factor(10007**2).factors == ((10007, 2),)


def test_around_two_to_the_64():
    for k in range(-40, 41):
        _assert_matches_reference(2**64 + k)


def test_large_inputs():
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1) and not is_prime(2**89 - 3)
    for n in (2**89 - 1, 2**89 - 3, 10007 * (2**61 - 1)):
        _assert_matches_reference(n)
    assert factor(10007 * (2**61 - 1)).factors == ((10007, 1), (2**61 - 1, 1))


def _next_prime(a: int) -> int:
    while not ref_is_prime(a):
        a += 1
    return a


# Log-uniform bit sizes, so most draws factor fast and some reach 2**40.
_FACTOR = st.integers(14, 40).flatmap(
    lambda bits: st.integers(max(10**4, 2 ** (bits - 1)), 2**bits - 100)).map(_next_prime)


@settings(max_examples=30, deadline=None)
@given(_FACTOR, _FACTOR)
def test_semiprimes_match_reference(p, q):
    assert is_prime(p) and is_prime(q)
    n = p * q
    assert not is_prime(n)
    _assert_matches_reference(n)
    expected = ((p, 2),) if p == q else tuple(sorted(((p, 1), (q, 1))))
    assert factor(n).factors == expected


# ---------------------------------------------------------------- the split

SPLITS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
          and len(os.sched_getaffinity(0)) >= 2)
needs_split = pytest.mark.skipif(not SPLITS, reason="the split needs os.fork and two CPUs")

MERSENNE_PRIMES = (2**521 - 1, 2**607 - 1, 2**1279 - 1)
# Composite, with no factor below 10**4, and strong base-2 pseudoprimes, as
# every composite Mersenne number is: each reaches the split.
MERSENNE_COMPOSITES = (2**523 - 1, 2**541 - 1, 2**1277 - 1)


@functools.cache
def _forge_prime(window: int) -> int:
    """The least prime of the forge progression for i0 = 1, j0 = 2 and radius window."""
    return find_prime(build_congruence_system(1, 2, window))


# Every input at or above the split, built on demand: the forge primes take
# a prime search each.
SPLIT_INPUTS = {
    **{f"M{n.bit_length()}": (lambda n=n: n) for n in MERSENNE_PRIMES + MERSENNE_COMPOSITES},
    "forge24": lambda: _forge_prime(24),
    "forge40": lambda: _forge_prime(40),
    "semiprime": lambda: _next_prime(2**299 + 2**150) * _next_prime(2**299 + 2**200),
}


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _checked_is_prime(n: int) -> bool:
    """is_prime(n), asserting that no child is left to reap and no descriptor open."""
    fds = _open_fds()
    verdict = is_prime(n)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    return verdict


def _count_forks(monkeypatch) -> list[int]:
    """The pids os.fork returns from now on in this process, as a list that grows."""
    forks, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_split_inputs_are_what_they_claim():
    primorial = math.prod(p for p in range(2, _TRIAL_LIMIT) if trial_is_prime(p))
    assert all(make().bit_length() >= _SPLIT_BITS for make in SPLIT_INPUTS.values())
    assert [_forge_prime(w).bit_length() for w in (24, 40)] == [648, 1211]
    for n in MERSENNE_COMPOSITES:
        assert math.gcd(n, primorial) == 1 and _strong_probable_prime(n, 2), n


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_above_the_split_matches_reference(name, monkeypatch):
    n = SPLIT_INPUTS[name]()
    forks = _count_forks(monkeypatch)
    assert _checked_is_prime(n) == ref_is_prime(n)
    # Base 2 rejects the semiprime before any fork.
    assert len(forks) == (1 if SPLITS and _strong_probable_prime(n, 2) else 0)


def test_no_fork_below_the_split_or_on_one_cpu(monkeypatch):
    forks = _count_forks(monkeypatch)
    below = _next_prime(2 ** (_SPLIT_BITS - 2))
    assert below.bit_length() == _SPLIT_BITS - 1
    assert _checked_is_prime(below)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _checked_is_prime(MERSENNE_PRIMES[0])
    assert forks == []


def test_a_failed_fork_runs_every_round_here(monkeypatch):
    def fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)
    for n in (MERSENNE_PRIMES[0], MERSENNE_COMPOSITES[0], _forge_prime(24)):
        assert _checked_is_prime(n) == ref_is_prime(n)


def test_a_second_thread_does_not_fork(monkeypatch):
    forks = _count_forks(monkeypatch)
    inputs = (MERSENNE_PRIMES[0], MERSENNE_COMPOSITES[0])
    verdicts = []
    thread = threading.Thread(target=lambda: verdicts.extend(map(is_prime, inputs)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert verdicts == [True, False] and forks == []


@needs_split
def test_a_witness_in_the_childs_half_decides(monkeypatch):
    # Patched before the fork, so only the child's bases are witnesses.
    parent, real = os.getpid(), arith._is_witness
    monkeypatch.setattr(arith, "_is_witness", lambda *args: os.getpid() != parent or real(*args))
    forks = _count_forks(monkeypatch)
    assert not _checked_is_prime(MERSENNE_PRIMES[0])
    assert len(forks) == 1


@needs_split
def test_a_witness_in_the_parents_half_kills_the_child(monkeypatch):
    # M523 passes base 2, and base 3, the first of the parent's half, is a
    # witness: the parent kills the child, whose rounds would take 30 s.
    parent, real = os.getpid(), arith._is_witness

    def witness(*args):
        if os.getpid() != parent:
            time.sleep(30)
        return real(*args)

    monkeypatch.setattr(arith, "_is_witness", witness)
    start = time.monotonic()
    assert not _checked_is_prime(MERSENNE_COMPOSITES[0])
    assert time.monotonic() - start < 10


@needs_split
def test_a_child_that_writes_nothing_is_retested(monkeypatch):
    # The child exits at its first round. The parent then tests the child's
    # half itself: with the real rounds it finds M521 prime, and when the
    # last base drawn, which is in the child's half, is a witness, composite.
    n = MERSENNE_PRIMES[0]
    rng = random.Random(n)
    last = [rng.randrange(2, n - 1) for _ in range(64)][-1]
    parent, real = os.getpid(), arith._is_witness
    fake_last = False

    def witness(*args):
        if os.getpid() != parent:
            os._exit(0)
        return (fake_last and args[-1] == last) or real(*args)

    monkeypatch.setattr(arith, "_is_witness", witness)
    forks = _count_forks(monkeypatch)
    assert _checked_is_prime(n)
    fake_last = True
    assert not _checked_is_prime(n)
    assert len(forks) == 2
