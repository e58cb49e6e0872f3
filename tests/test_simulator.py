"""Trajectory sampling, cost estimation, the martingale identity, spaced impulses."""

import dataclasses
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from impulsive_ctmdp import (
    ImproperChainError,
    NonConvergenceError,
    ValueFunction,
    analyze_chains,
    build_epidemic_model,
    dynkin_check,
    estimate_cost,
    evaluate_policy,
    extract_policy,
    replication_rng,
    sample_chain,
    simulate_spaced,
    simulate_trajectory,
    solve,
)
from impulsive_ctmdp import simulate
from impulsive_ctmdp._ops import compile_model, sample_rows
from impulsive_ctmdp.io import load_model
from impulsive_ctmdp.model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
    StationaryPolicy,
)
from impulsive_ctmdp.simulate import BLOCK, DEFAULT_TAIL_TOL, _block_rng, _blocks, _prepare, _replication_costs
from impulsive_ctmdp.testing import random_model

from conftest import (
    MODELS_DIR,
    desk_params,
    geometric_model,
    improper_model,
    improper_policy,
    mixed_chains,
    one_target_rows,
    two_state,
    zero_cost_model,
)


def solved(model):
    report = solve(model)
    return report, extract_policy(model, report.V)


def test_absorbing_zero_cost_start():
    m = two_state()
    _, policy = solved(m)
    traj = simulate_trajectory(m, policy, "0", replication_rng(0, 0))
    assert traj.natural_jump_count == 0
    assert traj.total_cost == 0.0
    assert traj.truncation_time == math.inf


def test_gradual_mean_matches_closed_form():
    m = two_state()
    _, policy = solved(m)
    est = estimate_cost(m, policy, "1", 2_000, seed=42)
    assert abs(est.mean - 0.5) <= 3 * est.std_error
    assert est.std_error > 0


def test_initial_chain_pays_exactly_the_impulse_cost():
    m = two_state(lam=0.3)
    _, policy = solved(m)
    traj = simulate_trajectory(m, policy, "1", replication_rng(3, 0))
    assert traj.total_cost == 0.3
    assert traj.discounted_impulse_cost == 0.3
    assert traj.truncation_time == math.inf
    chain_epochs = [ep for ep in traj.epochs if ep.chain is not None]
    assert len(chain_epochs) == 1 and chain_epochs[0].time == 0.0
    assert chain_epochs[0].post_state == "0"


def test_zero_cost_estimate_is_exactly_zero():
    m = zero_cost_model()
    _, policy = solved(m)
    est = estimate_cost(m, policy, "0", 50, seed=1)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_estimate_is_thread_count_invariant():
    m = two_state()
    _, policy = solved(m)
    one = estimate_cost(m, policy, "1", 400, seed=9, threads=1)
    two = estimate_cost(m, policy, "1", 400, seed=9, threads=2)
    assert one.mean == two.mean
    assert one.std_error == two.std_error


def test_estimate_is_thread_count_invariant_across_blocks():
    # Work splits at block boundaries; the last block is a partial one.
    m = two_state()
    _, policy = solved(m)
    runs = [estimate_cost(m, policy, "1", BLOCK + 7, seed=9, threads=k) for k in (1, 2, 3)]
    assert len({(r.mean, r.std_error) for r in runs}) == 1
    assert abs(runs[0].mean - 0.5) <= 4 * runs[0].std_error


def _blockwise_costs(model, policy, x0, seed, n_reps):
    """Per-replication costs with each block run alone, one after another."""
    prep = _prepare(model, policy)
    runs = [next(_blocks(prep, model.states.index[x0], seed, n_reps, range(b, b + 1),
                         prep.horizon(DEFAULT_TAIL_TOL), prep.run_cost, math.inf, prep.ends))
            for b in range(-(-n_reps // BLOCK))]
    return np.concatenate([first + flow + impulses for _, _, first, flow, impulses, _ in runs])


@pytest.mark.parametrize("case", ["two_state", "two_state_impulse", "desk"])
def test_lockstep_batches_draw_what_lone_blocks_draw(case, desk_solved, monkeypatch):
    # Blocks advanced together must give each path the numbers it draws when
    # its block runs alone.  No pinned floats: np.exp may round differently
    # on another CPU, but the two runs here share one.
    if case == "desk":
        model, report, x0 = desk_solved["model"], desk_solved["report"], "10,1,2"
    else:
        model = two_state() if case == "two_state" else load_model(str(MODELS_DIR / "two_state_impulse.yaml"))
        report, x0 = solve(model), "1"
    policy, n_reps, seed = report.policy, 3 * BLOCK + 5, 11
    alone = _blockwise_costs(model, policy, x0, seed, n_reps)
    assert np.array_equal(_replication_costs(model, policy, x0, seed, n_reps, DEFAULT_TAIL_TOL, range(4)), alone)
    expected = (float(np.mean(alone)), float(np.std(alone, ddof=1) / math.sqrt(n_reps)))
    for threads in (1, 2, 3):
        est = estimate_cost(model, policy, x0, n_reps, seed, threads=threads)
        assert (est.mean, est.std_error) == expected
    lockstep = dynkin_check(model, policy, report.V, x0, 1.0, n_reps, seed)
    monkeypatch.setattr(simulate, "BATCH", 1)
    one_by_one = dynkin_check(model, policy, report.V, x0, 1.0, n_reps, seed)
    assert vars(lockstep) == vars(one_by_one)
    # A call larger than the cap runs in successive batches; the last holds a partial block.
    monkeypatch.setattr(simulate, "BATCH", 2)
    n_reps = 5 * BLOCK + 3
    assert np.array_equal(_replication_costs(model, policy, x0, seed, n_reps, DEFAULT_TAIL_TOL, range(6)),
                          _blockwise_costs(model, policy, x0, seed, n_reps))


def force_stepping(monkeypatch):
    """Make every chain step: ``_prepare`` gives a chain table in which every state lands on itself."""
    prepare = simulate._prepare

    def stepping(model, policy):
        prep = prepare(model, policy)
        N = prep.comp.N
        return dataclasses.replace(prep, chains=dataclasses.replace(prep.chains, land=np.arange(N), w=np.zeros(N)))
    monkeypatch.setattr(simulate, "_prepare", stepping)


def count_lookups(monkeypatch) -> list[int]:
    """Count the paths whose chains land by lookup: the entries read from the
    chain table ``land`` that ``_prepare`` gives that differ from their index."""
    reads = [0]

    class Counted(np.ndarray):
        def __getitem__(self, key):
            out = super().__getitem__(key)
            reads[0] += int(np.count_nonzero(np.asarray(out) != np.asarray(key)))
            return out

    prepare = simulate._prepare

    def counting(model, policy):
        prep = prepare(model, policy)
        return dataclasses.replace(prep, chains=dataclasses.replace(prep.chains, land=prep.chains.land.view(Counted)))
    monkeypatch.setattr(simulate, "_prepare", counting)
    return reads


def test_mixed_chain_table():
    m, policy = mixed_chains()
    prep = _prepare(m, policy)
    assert prep.chains.land.tolist() == [0, 1, 1, 1, 4, 5]
    assert prep.chains.w.tolist() == [0.0, 0.0, 0.3 + 0.4, 0.4, 0.0, 0.0]


def _stream_runs(model, policy, V, x0s, threads=(1,)):
    n_reps = 3 * BLOCK + 5
    out = [(x0, k, vars(estimate_cost(model, policy, x0, n_reps, seed=13, threads=k))) for x0 in x0s for k in threads]
    return out + [(x0, vars(dynkin_check(model, policy, V, x0, 1.0, n_reps, seed=14))) for x0 in x0s]


@pytest.mark.parametrize("case", ["desk", "mixed"])
def test_resolved_chains_draw_what_stepped_chains_draw(case, desk_solved, monkeypatch):
    # A sure chain lands by lookup, and its steps on one-target rows would draw
    # nothing, so estimates match the stepped ones bit for bit.
    if case == "desk":
        model, policy, V = desk_solved["model"], desk_solved["report"].policy, desk_solved["report"].V
        x0s, threads = ["10,1,2"], (1, 2)
        flagged = policy.impulsive
        assert flagged.any() and (_prepare(model, policy).chains.land[flagged] != np.flatnonzero(flagged)).all()
    else:
        model, policy = mixed_chains()
        V, x0s, threads = evaluate_policy(model, policy), ["g1", "a", "d"], (1,)
    lookups = count_lookups(monkeypatch)
    resolved = _stream_runs(model, policy, V, x0s, threads)
    assert lookups[0] > 0
    force_stepping(monkeypatch)
    lookups = count_lookups(monkeypatch)
    assert _stream_runs(model, policy, V, x0s, threads) == resolved
    assert lookups[0] == 0


def test_only_a_two_target_row_draws():
    # Paths from a (sure), c (samples) and d (-> c, then samples) in one block:
    # the stream gives one uniform per sampled step, and a's chain lands by lookup.
    m, policy = mixed_chains()
    prep = _prepare(m, policy)
    x = np.array([m.states.index[s] for s in ("a", "c", "d", "a", "c", "g1")])
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    cost = simulate._chains(prep, x, [rng], np.arange(x.size))
    g1, g2 = m.states.index["g1"], m.states.index["g2"]
    u = twin.random(3)  # the c paths in step one, then the d path in step two
    c1, c2, d = np.where(u < 0.5, g1, g2)
    assert x.tolist() == [g2, c1, d, g2, c2, g1]
    assert cost.tolist() == [0.3 + 0.4, 0.5, 0.6 + 0.5, 0.3 + 0.4, 0.5, 0.0]
    assert rng.random() == twin.random()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.data())
def test_one_target_rows_give_the_same_estimates_by_lookup_and_by_steps(seed, data):
    # Small blocks make a short call span several blocks.
    m, report, x0s = one_target_rows(seed, data)

    def runs():
        return [(vars(estimate_cost(m, report.policy, x0, 50, seed)),
                 vars(dynkin_check(m, report.policy, report.V, x0, 1.0, 50, seed))) for x0 in x0s]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK", 16)
        looked_up = runs()
        with pytest.MonkeyPatch.context() as one:
            one.setattr(simulate, "BATCH", 1)
            assert runs() == looked_up
        force_stepping(mp)
        assert runs() == looked_up


def assert_walk_is_a_one_path_batch(model, policy, x0, seed, rep):
    """The recorded path from ``x0`` costs what the batch engine gives one path
    on the twin stream, ends where it ends and leaves the stream where it does."""
    rng, twin = replication_rng(seed, rep), replication_rng(seed, rep)
    traj = simulate_trajectory(model, policy, x0, rng)
    prep = _prepare(model, policy)
    x = np.array([model.states.index[x0]])
    first = simulate._chains(prep, x, [twin], np.arange(1))
    flow, impulses = simulate._advance(prep, x, [twin], prep.horizon(DEFAULT_TAIL_TOL), prep.run_cost, math.inf,
                                       prep.total_rate == 0.0)
    assert traj.discounted_gradual_cost == flow[0]
    assert traj.discounted_impulse_cost == first[0] + impulses[0]
    assert traj.epochs[-1].post_state == model.states.labels[x[0]]
    assert rng.random() == twin.random()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.data())
def test_recorded_paths_are_one_path_batches(seed, data):
    # The walk makes the batch's draws, float additions and discount factors,
    # on sure and sampled chains alike (the batch looks sure chains up).
    m, report, x0s = one_target_rows(seed, data)
    for x0 in x0s:
        for rep in range(4):
            assert_walk_is_a_one_path_batch(m, report.policy, x0, seed, rep)


def test_recorded_desk_paths_are_one_path_batches(desk_solved):
    m, policy = desk_solved["model"], desk_solved["report"].policy
    flagged = [m.states.labels[k] for k in np.flatnonzero(policy.impulsive)[::500]]
    for x0 in ["10,1,2", *flagged]:
        for rep in range(10):
            assert_walk_is_a_one_path_batch(m, policy, x0, 5, rep)


def test_recorded_sure_chains_cost_what_the_table_says():
    # x -> y -> u -> z is sure; z jumps back to x.  Summed in chain order the
    # costs give 0.6000000000000001, and in reverse order 0.6: a recorded
    # path charges the table's weighted cost, as the batch does, while the
    # recorded chain lists the plain sum of its steps.
    labels = ("x", "y", "u", "z")
    m = CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={s: ("wait",) for s in labels},
                              impulsive={s: ("go",) if s != "z" else () for s in labels}),
        rates=RateKernel(rows={("z", "wait"): (("x", 1.0),), **{(s, "wait"): () for s in "xyu"}}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("x", "go"): (("y", 1.0),), ("y", "go"): (("u", 1.0),),
                                     ("u", "go"): (("z", 1.0),)}),
        costs=CostModel(gradual_cost={(s, "wait"): 1.0 if s == "z" else 0.0 for s in labels},
                        impulse_cost={("x", "go"): 0.1, ("y", "go"): 0.2, ("u", "go"): 0.3},
                        eta=1.0, K_cost=1.0, c_lower=0.1),
    )
    policy = improper_policy(m)
    for x0 in ("x", "z"):
        for rep in range(4):
            assert_walk_is_a_one_path_batch(m, policy, x0, 3, rep)
    assert _prepare(m, policy).chains.w[0] == analyze_chains(m, policy).w[0]
    chain = sample_chain(m, policy, "x", replication_rng(0, 0))
    assert chain.total_cost == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def brute_force_ends(model, policy):
    """The states where an estimate's path ends, as a fixpoint: from the
    zero-cost waiting states, drop any with a jump (a stored entry of its
    rate row under phi_g) out of the set until nothing changes; then add the
    states without jumps."""
    prep = _prepare(model, policy)
    rows = [set(prep.comp.J[g].indices.tolist()) for g in prep.g_rows]
    keep = {x for x in range(model.states.N) if not policy.impulsive[x] and prep.run_cost[x] == 0.0}
    while drop := {x for x in keep if not rows[x] <= keep}:
        keep -= drop
    return [x in keep or prep.total_rate[x] == 0.0 for x in range(model.states.N)]


def assert_ended_batch_costs_the_walk(model, policy, x0, seed, rep) -> bool:
    """A one-path batch that ends at ``prep.ends`` costs what the recorded path
    from ``x0`` costs on the twin stream, and stops where that path first
    enters ``ends``.  Returns whether it stopped at a state that jumps."""
    rng, twin = replication_rng(seed, rep), replication_rng(seed, rep)
    traj = simulate_trajectory(model, policy, x0, rng)
    prep = _prepare(model, policy)
    x = np.array([model.states.index[x0]])
    first = simulate._chains(prep, x, [twin], np.arange(1))
    flow, impulses = simulate._advance(prep, x, [twin], prep.horizon(DEFAULT_TAIL_TOL), prep.run_cost, math.inf,
                                       prep.ends)
    assert traj.discounted_gradual_cost == flow[0]
    assert traj.discounted_impulse_cost == first[0] + impulses[0]
    posts = [model.states.index[ep.post_state] for ep in traj.epochs]
    assert x[0] == next((k for k in posts if prep.ends[k]), posts[-1])
    return bool(prep.ends[x[0]] and prep.total_rate[x[0]] > 0.0)


def no_jump_ends(monkeypatch):
    """Make ``_prepare`` give the states without jumps as ``ends``, so an
    estimate's paths run on through zero-cost states."""
    prepare = simulate._prepare

    def running(model, policy):
        prep = prepare(model, policy)
        return dataclasses.replace(prep, ends=prep.total_rate == 0.0)
    monkeypatch.setattr(simulate, "_prepare", running)


def zero_cost_at(model, labels):
    """The model with zero running cost under every gradual action at ``labels``."""
    costs = {(s, a): 0.0 if s in labels else c for (s, a), c in model.costs.gradual_cost.items()}
    return dataclasses.replace(model, costs=dataclasses.replace(model.costs, gradual_cost=costs))


def test_paths_end_in_the_largest_zero_cost_set():
    # a is zero-cost and absorbing, b drains into it, f <-> g is a closed
    # zero-cost cycle: all end.  The zero-cost cycle c <-> d drains into the
    # costly e, and h jumps into the flagged i, whose impulse costs: neither ends.
    labels = tuple("abcdefghi")
    rows = {"b": (("a", 1.0),), "c": (("d", 1.0),), "d": (("c", 0.5), ("e", 0.5)), "f": (("g", 1.0),),
            "g": (("f", 1.0),), "h": (("i", 1.0),), "i": (("a", 1.0),)}
    m = CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={s: ("wait",) for s in labels},
                              impulsive={s: ("go",) if s == "i" else () for s in labels}),
        rates=RateKernel(rows={(s, "wait"): rows.get(s, ()) for s in labels}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("i", "go"): (("b", 1.0),)}),
        costs=CostModel(gradual_cost={(s, "wait"): 1.0 if s == "e" else 0.0 for s in labels},
                        impulse_cost={("i", "go"): 0.5}, eta=1.0, K_cost=1.0, c_lower=0.5),
    )
    policy = StationaryPolicy(phi_g=[0] * 9, phi_i=[-1] * 8 + [0])
    ends = _prepare(m, policy).ends.tolist()
    assert ends == [s in "abefg" for s in labels] == brute_force_ends(m, policy)
    for x0 in "bcdfhi":
        for rep in range(4):
            assert_ended_batch_costs_the_walk(m, policy, x0, 3, rep)
    assert estimate_cost(m, policy, "f", 50, seed=1).mean == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 59), st.data())
def test_the_end_mask_is_the_zero_cost_fixpoint(seed, data):
    # Under the solved policy and under waiting everywhere, with running
    # costs zeroed at random states.
    m = random_model(seed, max_states=12)
    m = zero_cost_at(m, set(data.draw(st.lists(st.sampled_from(m.states.labels), unique=True))))
    wait = StationaryPolicy(phi_g=[data.draw(st.integers(0, len(m.actions.gradual[s]) - 1)) for s in m.states.labels],
                            phi_i=[-1] * m.states.N)
    for policy in (solve(m).policy, wait):
        assert _prepare(m, policy).ends.tolist() == brute_force_ends(m, policy)
        for x0 in m.states.labels[:3]:
            for rep in range(2):
                assert_ended_batch_costs_the_walk(m, policy, x0, seed, rep)


def test_desk_paths_end_once_they_cost_nothing_more(desk_solved, monkeypatch):
    # Once no susceptible and no infective is left, a desk path waits in
    # (0, c, 0) while carriers keep jumping; the estimate stops it there.
    m, report = desk_solved["model"], desk_solved["report"]
    policy = report.policy
    prep = _prepare(m, policy)
    assert prep.ends.tolist() == brute_force_ends(m, policy)
    assert (prep.ends & (prep.total_rate > 0.0)).any()
    stopped = [assert_ended_batch_costs_the_walk(m, policy, "10,1,2", 5, rep) for rep in range(20)]
    assert any(stopped)
    n_reps = 8 * BLOCK
    ended = estimate_cost(m, policy, "10,1,2", n_reps, seed=2)
    dynkin = dynkin_check(m, policy, report.V, "10,1,2", 1.0, n_reps, seed=2)
    no_jump_ends(monkeypatch)
    running = estimate_cost(m, policy, "10,1,2", n_reps, seed=2)
    assert ended.mean != running.mean
    assert abs(ended.mean - running.mean) <= 4 * math.hypot(ended.std_error, running.std_error)
    # dynkin_check reads W at the final state, so its paths end only where nothing jumps.
    assert vars(dynkin_check(m, policy, report.V, "10,1,2", 1.0, n_reps, seed=2)) == vars(dynkin)


@pytest.mark.parametrize("case", ["two_state_impulse", "mixed"])
def test_an_empty_zero_cost_set_keeps_the_estimate(case, monkeypatch):
    if case == "mixed":
        m, policy = mixed_chains()
        x0 = "g1"
    else:
        m = load_model(str(MODELS_DIR / "two_state_impulse.yaml"))
        policy, x0 = solve(m).policy, "1"
    prep = _prepare(m, policy)
    assert np.array_equal(prep.ends, prep.total_rate == 0.0)
    before = estimate_cost(m, policy, x0, 2 * BLOCK + 3, seed=4)
    no_jump_ends(monkeypatch)
    assert vars(estimate_cost(m, policy, x0, 2 * BLOCK + 3, seed=4)) == vars(before)


def test_every_sampler_raises_at_the_guard(monkeypatch):
    # Chains of 1,000 impulses on average against a 3-step guard; a spaced
    # path's guard counts the steps after its wait.
    m = geometric_model(p_stay=0.999)
    policy = improper_policy(m)
    prepare = simulate._prepare
    def guarded(model, pol):
        prep = prepare(model, pol)
        return dataclasses.replace(prep, chains=dataclasses.replace(prep.chains, guard=3))
    monkeypatch.setattr(simulate, "_prepare", guarded)
    calls = [lambda: sample_chain(m, policy, "x", replication_rng(0, 0)),
             lambda: simulate_trajectory(m, policy, "x", replication_rng(0, 0)),
             lambda: simulate_spaced(m, policy, "x", replication_rng(0, 0), [0.1]),
             lambda: estimate_cost(m, policy, "x", 10, seed=0)]
    message = "^chain exceeded the 3-step guard without reaching a gradual state$"
    for call in calls:
        with pytest.raises(ImproperChainError, match=message) as err:
            call()
        assert err.value.state == "x" and policy.impulsive[m.states.index[err.value.state]]


def test_errors_survive_a_pickle_round_trip():
    chain = ImproperChainError("chain exceeded the 9-step guard", "x")
    back = pickle.loads(pickle.dumps(chain))
    assert type(back) is ImproperChainError and str(back) == str(chain) and back.state == "x"
    stuck = NonConvergenceError("no fixed point", np.array([1.0, np.nan]), 0.5, 7)
    back = pickle.loads(pickle.dumps(stuck))
    assert type(back) is NonConvergenceError and str(back) == str(stuck)
    assert np.array_equal(back.last, stuck.last, equal_nan=True) and (back.step, back.iterations) == (0.5, 7)


def test_a_worker_failure_reaches_the_caller():
    # It reached the caller as BrokenProcessPool, since the error did not unpickle.
    m = improper_model()
    raised = []
    for threads in (1, 2):
        with pytest.raises(ImproperChainError) as err:
            estimate_cost(m, improper_policy(m), "x", 2 * BLOCK + 3, seed=0, threads=threads)
        raised.append((str(err.value), err.value.state))
    assert raised[0] == raised[1]


def test_block_streams_differ_from_replication_streams():
    # Block 0 of the batched estimate and the single path of replication 0
    # (the CLI's trajectory0.csv) used to draw the same numbers.
    for seed in (0, 12345):
        assert not np.array_equal(_block_rng(seed, 0).random(8), replication_rng(seed, 0).random(8))
    assert np.array_equal(_block_rng(7, 3).random(8), _block_rng(7, 3).random(8))


def test_policy_is_read_only():
    # The simulator caches its tables on the policy object, so the policy
    # must not change under it: neither through its fields nor through the
    # containers it was built from.
    m = two_state(lam=0.3)
    _, policy = solved(m)
    before = estimate_cost(m, policy, "1", 200, seed=3)
    assert abs(before.mean - 0.3) < 1e-12
    for name in ("phi_g", "phi_i", "impulsive"):
        with pytest.raises(ValueError):
            getattr(policy, name)[1] = 0
    assert estimate_cost(m, policy, "1", 200, seed=3).mean == before.mean
    choices = np.array([-1, 0, 7])
    passed = np.array(policy.phi_g)
    copy = StationaryPolicy(phi_g=passed, phi_i=choices[:2])
    assert estimate_cost(m, copy, "1", 200, seed=3).mean == before.mean
    choices[1] = -1
    passed[0] = 5
    assert copy.impulsive.tolist() == [False, True]
    assert copy.phi_i.tolist() == policy.phi_i.tolist() == [-1, 0]
    assert copy.phi_g.tolist() == policy.phi_g.tolist() == [0, 0]
    assert estimate_cost(m, copy, "1", 200, seed=3).mean == before.mean


def moving_start(m, policy):
    """The first state where the policy waits under an action that jumps, or None."""
    moving = [k for k, s in enumerate(m.states.labels)
              if not policy.impulsive[k] and m.rates.total_rate(s, policy.gradual_action(m, s)) > 0]
    return moving[0] if moving else None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_estimate_matches_value_on_random_models(seed):
    m = random_model(seed)
    report, policy = solved(m)
    k = moving_start(m, policy)
    assume(k is not None)
    est = estimate_cost(m, policy, m.states.labels[k], 2_000, seed=seed)
    assert abs(est.mean - report.V[k]) <= 4 * est.std_error + report.gap


def test_long_proper_chains_are_simulated():
    # Chains of 1,000 impulses on average; analyze_chains gives 700.
    m = geometric_model(p_stay=0.999)
    est = estimate_cost(m, improper_policy(m), "x", 100, seed=1)
    assert abs(est.mean - 700.0) <= 4 * est.std_error


def test_trajectory_is_reproducible():
    m = two_state()
    _, policy = solved(m)
    a = simulate_trajectory(m, policy, "1", replication_rng(7, 3))
    b = simulate_trajectory(m, policy, "1", replication_rng(7, 3))
    assert a.total_cost == b.total_cost
    assert [ep.time for ep in a.epochs] == [ep.time for ep in b.epochs]
    assert [ep.post_state for ep in a.epochs] == [ep.post_state for ep in b.epochs]


def test_epoch_times_strictly_increase():
    m = two_state()
    _, policy = solved(m)
    for rep in range(20):
        traj = simulate_trajectory(m, policy, "1", replication_rng(11, rep))
        times = [ep.time for ep in traj.epochs]
        assert all(a < b for a, b in zip(times, times[1:]))


def test_argument_validation():
    m = two_state()
    _, policy = solved(m)
    with pytest.raises(ValueError):
        simulate_trajectory(m, policy, "1", replication_rng(0, 0), tail_tol=0.0)
    with pytest.raises(ValueError):
        estimate_cost(m, policy, "1", 1, seed=0)
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^t must be finite and > 0$"):
            dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", t, 10, 0)
    for threads in (0, -3, 1.5, True):
        with pytest.raises(ValueError, match="^threads must be an integer >= 1"):
            estimate_cost(m, policy, "1", BLOCK + 7, seed=0, threads=threads)
    for n_reps in (2.5, "10", True, 10.0):
        with pytest.raises(ValueError, match="^n_reps must be an integer >= 2"):
            estimate_cost(m, policy, "1", n_reps, seed=0)
        with pytest.raises(ValueError, match="^n_reps must be an integer >= 2"):
            dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", 1.0, n_reps, 0)
    for seed in (2.5, "3", False, -1):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            estimate_cost(m, policy, "1", 10, seed=seed)
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", 1.0, 10, seed)
    with pytest.raises(ValueError):
        simulate_spaced(m, policy, "1", replication_rng(0, 0), [-0.1])
    # An unknown initial state used to surface as a bare KeyError('nope').
    not_a_state = "^x0 'nope' is not a state of the model$"
    for threads in (1, 2):
        with pytest.raises(ValueError, match=not_a_state):
            estimate_cost(m, policy, "nope", BLOCK + 7, seed=0, threads=threads)
    with pytest.raises(ValueError, match=not_a_state):
        dynkin_check(m, policy, ValueFunction(np.zeros(2)), "nope", 1.0, 10, 0)
    with pytest.raises(ValueError, match=not_a_state):
        simulate_trajectory(m, policy, "nope", replication_rng(0, 0))
    with pytest.raises(ValueError, match=not_a_state):
        simulate_spaced(m, policy, "nope", replication_rng(0, 0), [0.1])
    with pytest.raises(ValueError, match=not_a_state):
        sample_chain(m, policy, "nope", replication_rng(0, 0))


@pytest.mark.parametrize("n_reps", [1, 0])
def test_dynkin_check_needs_two_replications(n_reps):
    # One replication has no standard error and none has no mean; both used
    # to come back as NaN with a numpy RuntimeWarning.
    m = two_state()
    _, policy = solved(m)
    with pytest.raises(ValueError, match="n_reps"):
        dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", 1.0, n_reps, 0)


@pytest.mark.parametrize("bad", [0.0, -1e-8, math.nan, math.inf])
def test_tail_tol_is_checked_by_the_engine(bad):
    m = two_state()
    _, policy = solved(m)
    with pytest.raises(ValueError, match="tail_tol"):
        estimate_cost(m, policy, "1", 10, seed=0, tail_tol=bad)
    with pytest.raises(ValueError, match="tail_tol"):
        simulate_trajectory(m, policy, "1", replication_rng(0, 0), tail_tol=bad)
    with pytest.raises(ValueError, match="tail_tol"):
        simulate_spaced(m, policy, "1", replication_rng(0, 0), [0.1], tail_tol=bad)
    with pytest.raises(ValueError, match="waits"):
        simulate_spaced(m, policy, "1", replication_rng(0, 0), [math.nan])


def test_dynkin_check_rejects_a_bad_value_vector(desk_solved):
    # One NaN in W gave rhs = diff = nan without a word; a W of the wrong
    # length failed inside numpy ("matmul: dimension mismatch").
    m, policy, V = desk_solved["model"], desk_solved["policy"], desk_solved["report"].V.values
    x0 = m.states.labels[0]
    nan = V.copy()
    nan[5] = math.nan
    for bad in (nan, V[:-1], np.append(V, 0.0)):
        with pytest.raises(ValueError, match=rf"^W must hold one finite value per state \({m.states.N}\)$"):
            dynkin_check(m, policy, ValueFunction(bad), x0, 1.0, 10, 0)


def test_dynkin_zero_function_is_exact():
    m = two_state()
    _, policy = solved(m)
    res = dynkin_check(m, policy, ValueFunction(np.zeros(2)), "1", 1.0, 100, 0)
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.diff == 0.0


def test_dynkin_constant_function_telescopes():
    # With W constant and no impulses the jump flux cancels and the identity
    # reduces to e^{-t} = 1 - eta * integral, exact up to float rounding.
    m = two_state()
    _, policy = solved(m)
    res = dynkin_check(m, policy, ValueFunction(np.ones(2)), "1", 1.0, 200, 3)
    assert abs(res.diff) <= 1e-12


def test_dynkin_solved_value_within_three_sigma():
    m = two_state()
    report, policy = solved(m)
    res = dynkin_check(m, policy, report.V, "1", 1.0, 4_000, 9)
    assert abs(res.diff) <= 3 * res.std_error


def test_spaced_with_zero_waits_matches_plain_path():
    m = two_state(lam=0.3)
    _, policy = solved(m)
    for rep in range(10):
        plain = simulate_trajectory(m, policy, "1", replication_rng(13, rep))
        spaced = simulate_spaced(m, policy, "1", replication_rng(13, rep), [0.0, 0.0])
        assert spaced.total_cost == plain.total_cost
        assert spaced.discounted_impulse_cost == plain.discounted_impulse_cost
        assert spaced.truncation_time == plain.truncation_time


def test_spaced_deterministic_schedule_closed_form():
    # State 1 has zero jump rate, so the single wait d is never interrupted:
    # cost = running cost over [0, d] plus the discounted impulse.
    m = two_state(lam=0.3, rate1=0.0)
    _, policy = solved(m)
    d = 0.05
    traj = simulate_spaced(m, policy, "1", replication_rng(1, 0), [d])
    expected = (1.0 - math.exp(-d)) + 0.3 * math.exp(-d)
    assert abs(traj.total_cost - expected) <= 1e-14
    assert traj.truncation_time == math.inf


def test_spaced_interruption_switches_to_gradual_only():
    # Huge wait: the natural jump at rate 1 lands inside it almost surely,
    # after which no impulse is ever applied.
    m = two_state(lam=0.3)
    _, policy = solved(m)
    interrupted = 0
    for rep in range(50):
        traj = simulate_spaced(m, policy, "1", replication_rng(17, rep), [50.0])
        if traj.discounted_impulse_cost == 0.0:
            interrupted += 1
            chains = [ep.chain for ep in traj.epochs if ep.chain is not None]
            assert all(len(c.steps) == 0 for c in chains)
    assert interrupted >= 45  # P(jump < 50) is essentially 1


def test_spaced_chain_pausing_at_its_own_start_costs_its_steps():
    # s -> a -> s draws at s, and the third impulse waits, so 146 of these
    # 200 paths pause at their own start s, where the chain table lands s on
    # itself at cost 0.  The pause is a stretch that did not land: it is
    # charged the steps it took.
    labels = ("s", "a", "t")
    m = CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={x: ("wait",) for x in labels},
                              impulsive={"s": ("go",), "a": ("go",), "t": ()}),
        rates=RateKernel(rows={("s", "wait"): (("t", 1.0),), ("a", "wait"): (), ("t", "wait"): ()}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("s", "go"): (("a", 0.7), ("t", 0.3)), ("a", "go"): (("s", 1.0),)}),
        costs=CostModel(gradual_cost={(x, "wait"): 0.0 for x in labels},
                        impulse_cost={("s", "go"): 0.5, ("a", "go"): 0.25}, eta=1.0, K_cost=1.0, c_lower=0.25),
    )
    policy = StationaryPolicy(phi_g=np.zeros(3, dtype=np.int64), phi_i=[0, 0, -1])
    paused = 0
    for rep in range(200):
        traj = simulate_spaced(m, policy, "s", replication_rng(3, rep), [0.0, 0.0, 1e9])
        assert traj.discounted_impulse_cost == traj.epochs[0].chain.total_cost
        paused += traj.epochs[0].post_state == "s"
    assert paused == 146


def test_natural_jump_count_bounded_by_uniform_rate():
    m = two_state()
    _, policy = solved(m)
    t_cap = 1.0
    counts = []
    for rep in range(500):
        traj = simulate_trajectory(m, policy, "1", replication_rng(19, rep))
        counts.append(sum(1 for ep in traj.epochs if 0.0 < ep.time <= t_cap))
    counts = np.array(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert counts.mean() <= m.K * t_cap + 3 * se


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_trajectory_mean_matches_value_on_random_models(seed):
    m = random_model(seed, max_states=12)
    report, policy = solved(m)
    k = moving_start(m, policy)
    assume(k is not None)
    costs = np.array([simulate_trajectory(m, policy, m.states.labels[k], replication_rng(seed, i)).total_cost
                      for i in range(300)])
    se = costs.std(ddof=1) / math.sqrt(costs.size)
    assert abs(costs.mean() - report.V[k]) <= 4 * se + report.gap


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_sampled_chain_landings_match_the_chain_analysis(seed):
    # Flag every state with an impulse; its full-support rows make the chains proper.
    m = random_model(seed, max_states=8)
    policy = improper_policy(m)
    assume(0 < policy.impulsive.sum() < m.states.N)
    ana = analyze_chains(m, policy)
    x = ana.states[0]
    n = 400
    counts = np.zeros(m.states.N)
    for i in range(n):
        counts[m.states.index[sample_chain(m, policy, x, replication_rng(seed, i)).landing]] += 1
    p = ana.landing_row(0)
    assert np.all(counts[policy.impulsive] == 0)
    assert np.all(np.abs(counts / n - p) <= 4 * np.sqrt(p * (1 - p) / n) + 1 / n)


def chain_abc() -> tuple[CtmdpModel, StationaryPolicy]:
    """a -> b -> c at rate 1; b is flagged, and its impulse moves it to the absorbing c."""
    m = CtmdpModel(
        states=StateSpace(("a", "b", "c")),
        actions=ActionCatalog(gradual={"a": ("wait",), "b": ("wait",), "c": ("wait",)},
                              impulsive={"a": (), "b": ("fix",), "c": ()}),
        rates=RateKernel(rows={("a", "wait"): (("b", 1.0),), ("b", "wait"): (("c", 1.0),),
                               ("c", "wait"): ()}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("b", "fix"): (("c", 1.0),)}),
        costs=CostModel(gradual_cost={("a", "wait"): 1.0, ("b", "wait"): 1.0, ("c", "wait"): 0.0},
                        impulse_cost={("b", "fix"): 0.5}, eta=1.0, K_cost=1.0, c_lower=0.5),
    )
    policy = StationaryPolicy(phi_g=np.zeros(3, dtype=np.int64), phi_i=[-1, 0, -1])
    return m, policy


def test_spaced_paths_count_natural_jumps_only():
    m, policy = chain_abc()
    for rep in range(20):
        plain = simulate_trajectory(m, policy, "a", replication_rng(23, rep))
        zero = simulate_spaced(m, policy, "a", replication_rng(23, rep), [0.0])
        assert plain.natural_jump_count == zero.natural_jump_count == 1
        assert [ep.chain.steps for ep in zero.epochs[1:]] == [(("b", "fix"),)]
        # A long wait at b: the jump to c usually comes first and cuts the chain off.
        long = simulate_spaced(m, policy, "a", replication_rng(23, rep), [10.0])
        fired = long.discounted_impulse_cost > 0
        assert long.natural_jump_count == (1 if fired else 2)
        assert [ep.natural_target for ep in long.epochs] == ["a", "b"] + ([] if fired else ["c"])
        assert len(long.epochs[1].chain.steps) == int(fired) and long.epochs[1].post_state == ("c" if fired else "b")


# A row of running probabilities: weights with zeros among them, scaled so
# that the running sum may end below 1 (and below u); an all-zero row ends at 0.
_cum_rows = st.tuples(
    st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.sampled_from([1.0, 0.5, 1.0 - 2.0 ** -52]),
).map(lambda ws: np.cumsum(ws[0]) / (max(sum(ws[0]), 1e-300) / ws[1]))
_uniforms = st.sampled_from([0.0, 1.0 - 2.0 ** -53]) | st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_cum_rows, min_size=1, max_size=8), st.data())
def test_sample_rows_matches_searchsorted(rows, data):
    cum = np.concatenate(rows)
    ptr = np.cumsum([0] + [r.size for r in rows])
    pick = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12)))
    lo, hi = ptr[pick], ptr[pick + 1]
    u = np.array(data.draw(st.lists(_uniforms, min_size=pick.size, max_size=pick.size)))
    want = [int(a + np.searchsorted(cum[a:b - 1], v, side="right")) for a, b, v in zip(lo, hi, u)]
    assert sample_rows(cum, lo, hi, u).tolist() == want
    assert [int(sample_rows(cum, lo[k:k + 1], hi[k:k + 1], u[k:k + 1])[0]) for k in range(pick.size)] == want


def test_derived_tables_live_only_as_long_as_their_model_and_policy():
    # The compiled model, chain factor and sampling tables sat in caches of
    # the last 64 models and 32 (model, policy) pairs, which kept every
    # model and policy of a sweep in memory.
    # Equal policies share one entry: solve's evaluation, the chain factor
    # and the sampling tables.
    m = build_epidemic_model(desk_params(lam=0.05, c_max=4))
    report = solve(m)
    policy = report.policy
    assert policy.impulsive.any()
    comp = compile_model(m)
    assert compile_model(m) is comp
    equal = StationaryPolicy(policy.phi_g, policy.phi_i)
    assert evaluate_policy(m, equal) is report.V  # solve's own evaluation
    assert analyze_chains(m, policy) is analyze_chains(m, equal)  # built once
    estimate_cost(m, policy, m.states.labels[-1], 50, seed=1)
    simulate_trajectory(m, equal, m.states.labels[-1], replication_rng(1, 0))
    assert len(comp.derived) == 1 and _prepare(m, equal) is _prepare(m, policy)
    model_ref, policy_ref = weakref.ref(m), weakref.ref(policy)
    del report, policy, equal
    gc.collect()
    assert policy_ref() is None and len(comp.derived) == 0
    del m
    gc.collect()
    assert model_ref() is None
