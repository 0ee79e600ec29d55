import numpy as np
import pytest

from richlab.metanet import MetaNet, meta_forward
from richlab.tape import Tape


def test_zero_final_layer_gives_constant_positive_map():
    net = MetaNet.create(m=3, variant="plain", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    sched = meta_forward(net, [-2.0, 0.5])
    assert np.allclose(sched.omega, np.log(2.0))  # softplus(0)


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


def test_tape_forward_matches_numpy_forward():
    """The recorded forward and the tape-free one are the same pass: equal
    bit for bit for every variant and both omega outputs, with None for
    the weights a variant does not have."""
    mu = [-2.5, 2.0]
    for variant in ("plain", "mom", "nag", "nagex"):
        for log_omega in (False, True):
            net = MetaNet.create(m=3, variant=variant, seed=3,
                                 learn_log_omega=log_omega)
            plain = net.schedule_arrays(mu)
            t = Tape()
            recorded = net.forward_tape(mu, [t.var(p)
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


def test_meta_forward_alpha_tilde_per_variant():
    mu = [-1.0, 0.4]
    mom = meta_forward(MetaNet.create(m=3, variant="mom", seed=6), mu)
    assert np.all(mom.alpha > 0) and np.array_equal(mom.alpha_tilde,
                                                    np.zeros(3))
    nag = meta_forward(MetaNet.create(m=3, variant="nag", seed=6), mu)
    assert np.all(nag.alpha > 0) and np.array_equal(nag.alpha_tilde,
                                                    nag.alpha)


def test_hidden_weight_perturbation_matches_tape_gradient():
    net = MetaNet.create(m=3, variant="plain", seed=4)
    mu = [-1.5, 0.9]
    t = Tape()
    pv = [t.var(p) for p in net.parameters()]
    omega, _, _ = net.forward_tape(mu, pv)
    probe = np.array([1.0, 2.0, -1.0])
    from richlab import tape as tp
    y = tp.linear_map(lambda x: x @ probe, lambda g: g * probe, omega)
    t.backward(y)
    g = pv[1].grad  # second hidden weight matrix
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
