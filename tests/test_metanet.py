from types import SimpleNamespace

import numpy as np
import pytest

from richlab.checkpoint import load_checkpoint, save_checkpoint
from richlab.metanet import MetaNet, meta_forward

from reference_iterations import linear_map
from reference_tape import Tape, metanet_forward, recorded_schedules


def test_zero_final_layer_gives_constant_positive_map():
    net = MetaNet.create(m=3, variant="plain", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    sched = meta_forward(net, [-2.0, 0.5])
    assert np.allclose(sched.omega, np.log(2.0))  # softplus(0)


@pytest.mark.parametrize("mu,shape", [([0.5], (1,)),
                                      ([-2.0, 0.5, 1.0], (3,)),
                                      ([[-2.0, 0.5]], (1, 2))])
def test_forward_refuses_a_parameter_vector_of_another_length(mu, shape):
    # the (2, 2) input bounds would broadcast a Helmholtz problem's one
    # parameter, and the net would run on (omega, omega)
    net = MetaNet.create(m=2, seed=0)
    with pytest.raises(ValueError) as info:
        meta_forward(net, mu)
    assert str(info.value) == ("the net takes a parameter vector of length "
                               f"2, got shape {shape}")


def test_determinism_bitwise():
    net = MetaNet.create(m=3, variant="nagex", seed=1)
    a = meta_forward(net, [-3.0, 1.0])
    b = meta_forward(net, [-3.0, 1.0])
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.alpha_tilde, b.alpha_tilde)


def test_output_ranges():
    net = MetaNet.create(m=4, variant="nagex", seed=2)
    for mu in ([-6, 0], [0, np.pi], [-3.3, 1.7]):
        s = meta_forward(net, mu)
        assert np.all(s.omega > 0)
        assert np.all((s.alpha > 0) & (s.alpha < 1))
        assert np.all((s.alpha_tilde > 0) & (s.alpha_tilde < 1))


def test_variant_output_dims():
    assert MetaNet.create(3, "plain").widths[-1] == 3
    assert MetaNet.create(3, "mom").widths[-1] == 6
    assert MetaNet.create(3, "nag").widths[-1] == 6
    assert MetaNet.create(3, "nagex").widths[-1] == 9


def test_log_omega_mode():
    net = MetaNet.create(m=2, variant="plain", learn_log_omega=True, seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    s = meta_forward(net, [-1.0, 1.0])
    assert np.allclose(s.omega, 1.0)  # exp(0)


def test_forward_matches_recorded_forward():
    """The library's forward and the one recorded on the reference tape
    are equal bit for bit for every variant and both omega outputs, with
    None for the weights a variant does not have."""
    mu = [-2.5, 2.0]
    for variant in ("plain", "mom", "nag", "nagex"):
        for log_omega in (False, True):
            net = MetaNet.create(m=3, variant=variant, seed=3,
                                 learn_log_omega=log_omega)
            plain = net.schedule_arrays(mu)
            t = Tape()
            recorded = metanet_forward(net, mu, [t.var(p)
                                                 for p in net.parameters()])
            for a, v in zip(plain, recorded, strict=True):
                if a is None:
                    assert v is None
                else:
                    assert isinstance(a, np.ndarray)
                    assert np.array_equal(a, v.value)
            has = {"plain": (False, False), "mom": (True, False),
                   "nag": (True, True), "nagex": (True, True)}[variant]
            assert (plain[1] is not None, plain[2] is not None) == has
            if variant == "nag":
                assert plain[2] is plain[1]


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("log_omega", [False, True])
@pytest.mark.parametrize("variant", ["plain", "mom", "nag", "nagex"])
def test_backward_matches_recorded_gradients(variant, log_omega, batch_size):
    """Row gradients drawn at random, signed zeros among them: the
    hand-written backward equals the reference tape's replay of the
    recorded forwards bit for bit, signs of zeros included."""
    rng = np.random.default_rng(batch_size)
    net = MetaNet.create(m=3, variant=variant, seed=7, hidden=(5, 4),
                         learn_log_omega=log_omega)
    batch = [SimpleNamespace(mu=mu) for mu in
             rng.uniform([-6.0, 0.0], [0.0, np.pi], (batch_size, 2))]
    rows = {}
    for name in ("omega", "alpha", "alpha_t"):
        rows[name] = rng.standard_normal((batch_size, 3))
        rows[name][0, 0], rows[name][-1, -1] = -0.0, 0.0

    t = Tape()
    pvars = [t.var(p) for p in net.parameters()]
    recorded = dict(zip(rows, recorded_schedules(batch, net, pvars)))
    if variant == "nag":   # one Var holds both momentum rows
        del recorded["alpha_t"]
    # a loss whose gradient with respect to each row stack is its row
    loss = None
    for name, x in recorded.items():
        if x is not None:
            G = rows[name]
            term = linear_map(lambda z, G=G: np.sum(z * G),
                              lambda g, G=G: g * G, x)
            loss = term if loss is None else loss + term
    t.backward(loss)

    records = [net.forward_tape(s.mu)[1] for s in batch]
    got = net.backward(records, *(rows[name] if recorded.get(name)
                                  is not None else None for name in rows))
    for g, p in zip(got, pvars, strict=True):
        assert g.tobytes() == p.grad.tobytes()


def test_meta_forward_alpha_tilde_per_variant():
    mu = [-1.0, 0.4]
    mom = meta_forward(MetaNet.create(m=3, variant="mom", seed=6), mu)
    assert np.all(mom.alpha > 0) and np.array_equal(mom.alpha_tilde,
                                                    np.zeros(3))
    nag = meta_forward(MetaNet.create(m=3, variant="nag", seed=6), mu)
    assert np.all(nag.alpha > 0) and np.array_equal(nag.alpha_tilde,
                                                    nag.alpha)


def test_hidden_weight_perturbation_matches_backward():
    net = MetaNet.create(m=3, variant="plain", seed=4)
    mu = [-1.5, 0.9]
    probe = np.array([1.0, 2.0, -1.0])
    record = net.forward_tape(mu)[1]
    g = net.backward([record], probe[None])[1]  # second hidden weight matrix
    h = 1e-6
    i, j = 5, 7
    net2 = net.copy()
    net2.weights[1][i, j] += h
    d = (net2.schedule_arrays(mu)[0] @ probe - net.schedule_arrays(mu)[0] @ probe) / h
    assert abs(d - g[i, j]) <= 1e-4 * max(abs(d), 1e-8)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = MetaNet.create(m=3, variant="nag", seed=5)
    path = tmp_path / "net.ckpt"
    net.save(path, extra_metadata={"note": "test"})
    back = MetaNet.load(path)
    for a, b in zip(net.parameters(), back.parameters()):
        assert np.array_equal(a, b)
    assert back.variant == "nag" and back.m == 3
    s1, s2 = meta_forward(net, [-2, 1]), meta_forward(back, [-2, 1])
    assert np.array_equal(s1.omega, s2.omega)


@pytest.mark.parametrize("dropped", [
    "widths", "m", "variant", "learn_log_omega", "seed",
    "input_bounds", "weight_0", "bias_0", "weight_1", "bias_1"])
def test_load_names_a_missing_entry(dropped, tmp_path):
    # each header key and array that load reads, dropped on its own
    MetaNet.create(m=2, variant="plain", hidden=(3,)).save(tmp_path / "net")
    meta, arrays = load_checkpoint(tmp_path / "net", "metanet")
    meta.pop(dropped, None)
    arrays.pop(dropped, None)
    path = tmp_path / "short"
    save_checkpoint(path, meta, arrays)
    with pytest.raises(ValueError) as info:
        MetaNet.load(path)
    assert str(info.value) == f"{path} lacks the checkpoint entry {dropped!r}"
