import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from richlab.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from richlab.cli import CSV_COLUMNS, N_GRID_FULL, THETA_GRID, main
from richlab.metanet import MetaNet
from richlab.multigrid import CoarseSolveError
from richlab.training import NanLossError, TrainingDiverged
from richlab.sparse import read_matrix_market


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_theta_and_n_grids_match_published_layout():
    assert THETA_GRID == pytest.approx(
        [0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6,
         np.pi])
    assert N_GRID_FULL == [32, 64, 128, 256, 512]


def test_reproduce_t2_csv_columns_and_skipped(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    code, _, _ = run_cli(["reproduce", "t2", "--n", "16", "--seeds", "1",
                          "--output", str(out)], capsys)
    assert code == 0
    rows = read_rows(out)
    assert list(rows[0].keys()) == CSV_COLUMNS
    methods = {r["method"] for r in rows}
    # learned rows are marked skipped when no checkpoint is supplied
    assert "skipped" in methods and "cheb" in methods and "semi" in methods
    for r in rows:
        if r["method"] == "skipped":
            assert r["inner_iters"] == "" and r["outer_iters"] == ""
        else:
            assert int(r["inner_iters"]) > 0
            assert r["converged"] == "True"
            # provenance: every row carries its full cell coordinates
            assert r["eps"] and r["n"] and r["seed"] != ""


def test_reproduce_rows_in_deterministic_grid_order(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(["reproduce", "t2", "--n", "16", "--seeds", "2",
                              "--output", str(path)], capsys)
        assert code == 0
    assert a.read_bytes().split(b"wall_ms")[0]  # header present
    ra, rb = read_rows(a), read_rows(b)
    for x, y in zip(ra, rb):
        for timing in ("setup_ms", "wall_ms"):
            x.pop(timing), y.pop(timing)
    assert ra == rb


def test_reproduce_setup_charged_to_first_row_of_each_cell(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    code, _, _ = run_cli(["reproduce", "t2", "--n", "16", "--seeds", "2",
                          "--output", str(out)], capsys)
    assert code == 0
    seen = set()
    for r in read_rows(out):
        if r["method"] == "skipped":
            assert r["setup_ms"] == "" and r["wall_ms"] == ""
            continue
        first = r["eps"] not in seen
        seen.add(r["eps"])
        # the operator and its bounds are shared by all rows of one eps
        assert (float(r["setup_ms"]) > 0.0) == first
        assert float(r["wall_ms"]) > 0.0
    assert len(seen) == 4


def test_reproduce_unknown_table_is_config_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "t9"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_helmholtz_sweep_vcycle_beats_identity(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run_cli(["reproduce", "helmholtz-sweep", "--seeds", "1",
                          "--output", str(out)], capsys)
    assert code == 0
    rows = read_rows(out)
    by = {(r["theta"], r["method"]): int(r["inner_iters"]) for r in rows}
    for freq in ("3.0", "5.0"):
        assert by[(freq, "fgmres-vcycle")] < by[(freq, "fgmres-identity")]


def test_helmholtz_grid_resolves_every_frequency():
    from argparse import Namespace

    from richlab.cli import ConfigError, _grid_cells

    def sides(**kw):
        cells = _grid_cells("helmholtz-sweep",
                            Namespace(**{"seeds": 1, **kw}))
        return {c["theta"]: c["n"] for c in cells}

    assert sides(n=None, full=False) == {3.0: 64, 5.0: 64}
    assert sides(n=None, full=True) == {3.0: 64, 5.0: 64, 10.0: 128,
                                        20.0: 256}
    assert sides(n=256, full=True) == dict.fromkeys((3.0, 5.0, 10.0, 20.0),
                                                    256)
    with pytest.raises(ConfigError, match="frequency 10"):
        sides(n=64, full=True)
    with pytest.raises(ConfigError, match="frequency 3"):
        sides(n=16, full=False)


def test_helmholtz_sweep_too_coarse_n_exits_before_any_row(capsys):
    code, out, err = run_cli(["reproduce", "helmholtz-sweep", "--full",
                              "--n", "64", "--seeds", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "grid points per wavelength" in err


@pytest.mark.parametrize("output", [False, True])
def test_helmholtz_sweep_n_that_cannot_coarsen_exits_before_any_output(
        output, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    flags = ["--output", str(path)] if output else []
    code, out, err = run_cli(["reproduce", "helmholtz-sweep", "--n", "136",
                              "--seeds", "1"] + flags, capsys)
    assert code == 2
    assert out == "" and not path.exists()
    assert err == ("error: --n 136: n=136 does not coarsen to 16: its "
                   "halvings reach the odd side 17\n")


def test_solve_echoes_stopping_rule(capsys):
    code, out, _ = run_cli(["solve", "--n", "16", "--eps", "0.1",
                            "--weights", "chebyshev", "--m", "2"], capsys)
    assert code == 0
    assert "relative residual < 1e-06" in out
    assert "converged=True" in out


@pytest.mark.parametrize("flags,sweep", [
    ([], "sweep=horner bound="),
    (["--precond", "ssor"], "sweep=recurrence wall="),
    (["--weights", "literal", "--omega", ",".join(["0.3"] * 14)],
     "sweep=recurrence bound="),
])
def test_solve_reports_its_sweep_form(flags, sweep, capsys):
    code, out, _ = run_cli(["solve", "--n", "16", "--eps", "0.1"] + flags,
                           capsys)
    assert code == 0
    assert sweep in out.splitlines()[-1]


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_solve_non_positive_tol_exits_before_any_output(tol, capsys):
    code, out, err = run_cli(["solve", "--n", "8", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --tol must be positive, got {float(tol):g}\n"


@pytest.mark.parametrize("argv,message", [
    (["reproduce", "t2", "--n", "8", "--tol", "0"],
     "--tol must be positive, got 0"),
    (["reproduce", "helmholtz-sweep", "--tol", "-1"],
     "--tol must be positive, got -1"),
    (["reproduce", "t2", "--n", "8", "--max-outer", "0"],
     "--max-outer must be at least 1, got 0"),
    (["reproduce", "t2", "--n", "8", "--seeds", "-2"],
     "--seeds must be at least 1, got -2"),
    (["reproduce", "t2", "--n", "8", "--m", "0"],
     "--m must be at least 1, got 0"),
    (["solve", "--n", "8", "--max-outer", "-3"],
     "--max-outer must be at least 1, got -3"),
    (["solve", "--n", "8", "--max-outer", "0"],
     "--max-outer must be at least 1, got 0"),
    (["solve", "--n", "16", "--m", "0"], "--m must be at least 1, got 0"),
    (["solve", "--n", "16", "--weights", "literal", "--omega", "0.1",
      "--m", "0"], "--m must be at least 1, got 0"),
    (["reproduce", "t2", "--n", "1", "--seeds", "1"],
     "n must be >= 2, got 1"),
    (["reproduce", "t3", "--n", "1", "--seeds", "1"],
     "n must be >= 2, got 1"),
    (["reproduce", "t2", "--n", "0", "--seeds", "1"],
     "n must be >= 2, got 0"),
    (["train", "--count", "0", "--output", "unused.ckpt"],
     "--count must be at least 1, got 0"),
    (["train", "--batch-size", "0", "--output", "unused.ckpt"],
     "--batch-size must be at least 1, got 0"),
    (["train", "--unroll", "-1", "--output", "unused.ckpt"],
     "--unroll must be at least 0, got -1"),
    (["train", "--lr", "0", "--output", "unused.ckpt"],
     "--lr must be positive, got 0"),
    (["train", "--m", "0", "--output", "unused.ckpt"],
     "--m must be at least 1, got 0"),
])
def test_bad_run_flag_exits_before_any_output(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_solve_literal_weights(capsys):
    code, out, _ = run_cli(["solve", "--n", "16", "--weights", "literal",
                            "--omega", "0.2,0.3"], capsys)
    assert code == 0 and "converged=True" in out


def test_assemble_export_round_trip(tmp_path, capsys):
    from richlab.problems import AnisotropicProblem, assemble_anisotropic

    path = tmp_path / "op.mtx"
    code, out, _ = run_cli(["assemble", "--n", "12", "--eps", "0.5",
                            "--theta", "0.3", "--export", str(path)], capsys)
    assert code == 0
    back = read_matrix_market(path)
    ref = assemble_anisotropic(AnisotropicProblem(epsilon=0.5, theta=0.3,
                                                  n=12))
    assert np.array_equal(back.to_dense(), ref.to_dense())


def test_assemble_export_writes_the_path_it_prints(tmp_path, capsys):
    path = tmp_path / "op"
    code, out, _ = run_cli(["assemble", "--n", "8", "--export", str(path)],
                           capsys)
    assert code == 0
    assert out.splitlines()[-1] == f"wrote {path}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op"]
    assert read_matrix_market(path).shape == (49, 49)


@pytest.mark.parametrize("argv", [
    ["assemble", "--n", "8", "--export"],
    ["solve", "--n", "8", "--weights"],
    ["train", "--n", "8", "--count", "4", "--m", "2", "--unroll", "4",
     "--epochs", "1", "--batch-size", "2", "--output"],
], ids=["assemble-export", "solve-weights", "train-output"])
def test_directory_path_is_a_config_error_that_names_it(argv, tmp_path,
                                                        capsys):
    # a directory can be neither written as a file nor read as a
    # checkpoint: one error line naming it, exit 2, no traceback
    code, _, err = run_cli(argv + [str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(tmp_path) in err and "Traceback" not in err
    assert not tmp_path.with_name(tmp_path.name + ".mtx").exists()


def test_train_deterministic_checkpoints(tmp_path, capsys):
    args = ["train", "--n", "8", "--count", "4", "--m", "2", "--unroll", "4",
            "--epochs", "2", "--batch-size", "2", "--seed", "3"]
    c1 = main(args + ["--output", str(tmp_path / "a.ckpt")])
    c2 = main(args + ["--output", str(tmp_path / "b.ckpt")])
    capsys.readouterr()
    assert c1 == 0 and c2 == 0
    assert (tmp_path / "a.ckpt").read_bytes() == \
        (tmp_path / "b.ckpt").read_bytes()


@pytest.mark.parametrize("n,closed", [(4, "4 of 4 samples' Krylov spaces "
                                          "closed before 50 steps\n"),
                                      (16, "")])
def test_train_reports_closed_krylov_spaces(n, closed, tmp_path, capsys):
    # n=4 has 9 unknowns, fewer than the default unroll's 51 directions
    code, out, _ = run_cli(["train", "--n", str(n), "--count", "4",
                            "--epochs", "1", "--batch-size", "2",
                            "--output", str(tmp_path / "net.ckpt")], capsys)
    assert code == 0
    assert out.startswith(closed + "saved ")


def test_train_desk_scale_guard(capsys):
    code = main(["train", "--count", "501", "--output", "/tmp/x.ckpt"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flags,message", [
    (["--epochs", "0"], "--epochs must be at least 1, got 0"),
    (["--epochs", "-1"], "--epochs must be at least 1"),
    (["--batch-size", "0"], "--batch-size must be at least 1, got 0"),
    (["--unroll", "-10"], "--unroll must be at least 0, got -10"),
    (["--unroll", "-1"], "--unroll must be at least 0, got -1"),
    (["--m", "0"], "--m must be at least 1, got 0"),
    (["--lr", "-1"], "--lr must be positive, got -1"),
    (["--lr", "0"], "--lr must be positive, got 0"),
])
def test_train_rejects_bad_flags_before_sampling(flags, message, tmp_path,
                                                 capsys, monkeypatch):
    import richlab.cli

    monkeypatch.setattr(richlab.cli, "sample_dataset",
                        _raise(AssertionError("dataset sampled")))
    out = tmp_path / "out"
    code, _, err = run_cli(["train", "--n", "8", "--count", "4", *flags,
                            "--output", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("omega", ["nan", "inf", "0.1,-inf"])
def test_non_finite_literal_weights_are_a_config_error(omega, capsys):
    code, _, err = run_cli(["solve", "--n", "8", "--weights", "literal",
                            "--omega", omega, "--m", "1"], capsys)
    assert code == 2
    assert err.startswith("error: omega must be finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("omega,entry", [("abc", "abc"), ("0.1,", ""),
                                         ("0.1,,0.2", ""),
                                         ("0.2, x", " x")])
def test_malformed_literal_weights_are_a_config_error(omega, entry, capsys):
    code, out, err = run_cli(["solve", "--n", "8", "--weights", "literal",
                              "--omega", omega], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: --omega entry {entry!r} in {omega!r} is not a "
                   "number\n")


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[solve]\nn = 16\neps = 0.25\nm = 2\n")
    code, out, _ = run_cli(["--config", str(cfg), "solve"], capsys)
    assert code == 0 and "converged=True" in out
    # CLI flag wins over the file value
    code, out, _ = run_cli(["--config", str(cfg), "--print-config", "solve",
                            "--eps", "0.9"], capsys)
    assert code == 0
    assert "eps = 0.9" in out and "n = 16" in out


def test_explicit_flag_equal_to_default_beats_config(tmp_path, capsys):
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[solve]\nm = 5\ntol = 1e-3\n")
    code, out, _ = run_cli(["--config", str(cfg), "--print-config", "solve",
                            "--m", "3", "--tol", "1e-6"], capsys)
    assert code == 0
    assert "m = 3" in out.splitlines() and "tol = 1e-06" in out.splitlines()
    # unset flags still take the file values
    code, out, _ = run_cli(["--config", str(cfg), "--print-config", "solve"],
                           capsys)
    assert "m = 5" in out.splitlines() and "tol = 0.001" in out.splitlines()


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[solve]\nbogus-key = 1\n")
    code = main(["--config", str(cfg), "solve"])
    capsys.readouterr()
    assert code == 2


def test_config_values_take_their_flags_types(tmp_path, capsys):
    """File values are converted by their flag's own type, so ``--n``,
    whose default is None, still reaches the problem as an int."""
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[reproduce]\nn = 16\nseeds = 1\n")
    out = tmp_path / "t2.csv"
    code, _, err = run_cli(["--config", str(cfg), "reproduce", "t2",
                            "--output", str(out)], capsys)
    assert code == 0, err
    assert {row["n"] for row in read_rows(out)} == {"16"}
    cfg.write_text("[train]\nfull = yes\nprecond = ssor\n")
    code, out, _ = run_cli(["--config", str(cfg), "--print-config", "train",
                            "--output", "x"], capsys)
    assert code == 0
    assert "full = True" in out.splitlines()
    assert "precond = ssor" in out.splitlines()


@pytest.mark.parametrize("section,key,raw,message", [
    ("train", "variant", "bogus",
     "invalid choice 'bogus' (choose from plain, mom, nag, nagex)"),
    ("solve", "precond", "none",
     "invalid choice 'none' (choose from ssor, jacobi, gs)"),
    ("solve", "n", "sixteen",
     "invalid literal for int() with base 10: 'sixteen'"),
    ("solve", "tol", "small", "could not convert string to float: 'small'"),
    ("reproduce", "full", "maybe", "'maybe' is not a boolean"),
])
def test_bad_config_value_names_its_key(tmp_path, capsys, section, key, raw,
                                        message):
    cfg = tmp_path / "conf.ini"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    argv = {"train": ["train", "--output", str(tmp_path / "x")],
            "solve": ["solve"], "reproduce": ["reproduce", "t2"]}[section]
    code, out, err = run_cli(["--config", str(cfg), *argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: config key {key!r} in [{section}]: {message}\n"


def test_missing_config_file_is_config_error(capsys):
    code = main(["--config", "/nonexistent.ini", "solve"])
    capsys.readouterr()
    assert code == 2


def test_learned_rows_run_from_checkpoint(tmp_path, capsys):
    ck = tmp_path / "net.ckpt"
    assert main(["train", "--n", "8", "--count", "4", "--m", "2",
                 "--unroll", "4", "--epochs", "1", "--batch-size", "2",
                 "--output", str(ck)]) == 0
    capsys.readouterr()
    out = tmp_path / "t3.csv"
    code, _, _ = run_cli(["reproduce", "t3", "--n", "16", "--m", "2",
                          "--seeds", "1", "--max-outer", "2000",
                          "--checkpoint", str(ck), "--output", str(out)],
                         capsys)
    assert code == 0
    rows = read_rows(out)
    learned = [r for r in rows if r["method"] == "learned"]
    assert len(learned) == len(THETA_GRID)
    assert all(r["inner_iters"] != "" for r in learned)


def test_solve_refuses_a_net_of_another_parameter_count(tmp_path, capsys):
    # an anisotropic net reads (log10 eps, theta); a Helmholtz problem
    # has one parameter, which the net's bounds would broadcast
    net = tmp_path / "net"
    MetaNet.create(2, hidden=(3,)).save(net)
    code, out, err = run_cli(["solve", "--problem", "helmholtz", "--n", "32",
                              "--frequency", "2", "--weights", str(net),
                              "--max-outer", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: the net takes a parameter vector of length 2, "
                   "got shape (1,)\n")


def test_hybrid_checkpoints_and_the_model_flag_are_refused(tmp_path,
                                                           capsys):
    """A trained-hybrid file (kind "fns-anchored") from before the learned
    hybrid was retired fails loudly, and so does asking for one."""
    net = tmp_path / "net"
    MetaNet.create(2, hidden=(3,)).save(net)
    meta, arrays = load_checkpoint(net, "metanet")
    ck = tmp_path / "hybrid"
    save_checkpoint(ck, {**meta, "kind": "fns-anchored", "n": 4},
                    {**arrays, "g": np.zeros(9)})
    refusal = f"error: {ck} holds a checkpoint of kind 'fns-anchored', " \
              "not 'metanet'\n"
    for argv in (["solve", "--n", "16", "--weights", str(ck)],
                 ["reproduce", "t2", "--n", "16", "--seeds", "1",
                  "--checkpoint", str(ck)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", refusal)
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "fns", "--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --model" in capsys.readouterr().err
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[train]\nmodel = fns\n")
    code, stdout, err = run_cli(["--config", str(cfg), "train", "--output",
                                 str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: unknown config key 'model' in [train]\n"
    assert not out.exists()


EMPTY_SHA = hashlib.sha256().hexdigest().encode()


def edited_net(**edits):
    """(header, payload) of a small plain net's checkpoint, m=2 and
    widths [2, 3, 2], with the header entries or arrays named in
    ``edits`` replaced, laid out as ``save_checkpoint`` lays them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "net")
        MetaNet.create(2, hidden=(3,)).save(path)
        meta, arrays = load_checkpoint(path, "metanet")
    for key, value in edits.items():
        (arrays if key in arrays else meta)[key] = value
    payloads = {k: np.asarray(a, dtype="<f8").tobytes()
                for k, a in arrays.items()}
    payload = b"".join(payloads.values())
    meta["arrays"] = [{"name": k, "shape": list(np.shape(arrays[k])),
                       "nbytes": len(buf)} for k, buf in payloads.items()]
    meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    return json.dumps(meta).encode(), payload


@pytest.mark.parametrize("header,payload", [
    (b'{"kind": "metanet", "arrays": [], "payload_sha256": "'
     + EMPTY_SHA + b'"}', b""),
    (b'["kind", "metanet"]', b""),
    (b'{"kind": "metanet"}', b""),
    (b'{"kind": "metanet", "arrays": [', b""),
    (b'{"kind": "metanet", "arrays": [{"name": "input_bounds", "shape": '
     b'[2.5], "nbytes": 16}], "payload_sha256": "'
     + hashlib.sha256(bytes(16)).hexdigest().encode() + b'"}', bytes(16)),
    (b'{"kind": "metanet", "widths": 3, "arrays": [], "payload_sha256": "'
     + EMPTY_SHA + b'"}', b""),
    edited_net(m="2"),
    edited_net(m=2.5),
    edited_net(m=0),
    edited_net(m=True),
    edited_net(variant="bogus"),
    edited_net(variant=["plain"]),
    edited_net(learn_log_omega="yes"),
    edited_net(learn_log_omega=1),
    edited_net(seed="x"),
    edited_net(seed=1.0),
    edited_net(m=3),
    edited_net(variant="mom"),
    edited_net(weight_0=np.zeros((3, 3))),
    edited_net(weight_1=np.zeros((2, 3, 1))),
    edited_net(bias_0=np.zeros(2)),
    edited_net(bias_1=np.zeros((2, 1))),
    edited_net(input_bounds=np.zeros((3, 2))),
], ids=["no-widths", "list", "no-arrays", "not-json", "shape-float",
        "widths-int", "m-str", "m-float", "m-zero", "m-bool",
        "variant-bogus", "variant-list", "log-omega-str", "log-omega-int",
        "seed-str", "seed-float", "widths-not-m", "widths-not-variant",
        "weight-shape", "weight-rank", "bias-shape", "bias-rank",
        "bounds-shape"])
def test_malformed_checkpoint_header_is_a_config_error(header, payload,
                                                       tmp_path, capsys):
    ck = tmp_path / "net.ckpt"
    ck.write_bytes(MAGIC.encode() + b"\n" + header + b"\n\n" + payload)
    code, out, err = run_cli(["solve", "--n", "8", "--weights", str(ck)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(ck) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("output", [False, True])
def test_missing_checkpoint_exits_before_any_output(output, tmp_path,
                                                    capsys):
    path, missing = tmp_path / "t2.csv", tmp_path / "nope.npz"
    flags = ["--output", str(path)] if output else []
    code, out, err = run_cli(["reproduce", "t2", "--seeds", "1", "--n", "16",
                              "--checkpoint", str(missing)] + flags, capsys)
    assert code == 2
    assert out == "" and not path.exists()
    assert err.startswith("error: ") and str(missing) in err


def test_learned_rows_charge_the_load_to_the_first_row(tmp_path, capsys):
    ck = tmp_path / "net.ckpt"
    assert main(["train", "--n", "8", "--count", "4", "--m", "2",
                 "--unroll", "4", "--epochs", "1", "--batch-size", "2",
                 "--output", str(ck)]) == 0
    capsys.readouterr()
    out = tmp_path / "t2.csv"
    code, _, _ = run_cli(["reproduce", "t2", "--n", "8", "--m", "2",
                          "--seeds", "1", "--max-outer", "2000",
                          "--checkpoint", str(ck), "--output", str(out)],
                         capsys)
    assert code == 0
    learned = [r for r in read_rows(out) if r["method"] == "learned"]
    # the operator of every cell was built for its cheb row
    assert [float(r["setup_ms"]) > 0 for r in learned] == \
        [True] + [False] * (len(learned) - 1)


def _raise(exc):
    def call(*args, **kwargs):
        raise exc
    return call


@pytest.mark.parametrize("target,exc,argv,prefix", [
    ("helmholtz_hierarchy",
     CoarseSolveError("coarsest factorization failed: singular"),
     ["reproduce", "helmholtz-sweep", "--seeds", "1"], "solver failed:"),
    ("train_ns", TrainingDiverged("validation loss diverged", history={}),
     ["train", "--n", "8", "--count", "4"], "training failed:"),
    ("train_ns", NanLossError(2),
     ["train", "--n", "8", "--count", "4"], "training failed:"),
])
def test_library_failure_exits_1_with_one_line(target, exc, argv, prefix,
                                               tmp_path, capsys,
                                               monkeypatch):
    import richlab.cli

    monkeypatch.setattr(richlab.cli, target, _raise(exc))
    code, _, err = run_cli(argv + ["--output", str(tmp_path / "out")],
                           capsys)
    assert code == 1
    assert err == f"{prefix} {exc}\n"


def _operator(kind):
    """A real n=8 operator that a numerical step refuses: indefinite, or
    with a zero diagonal entry in row 3."""
    import scipy.sparse

    from richlab.problems import AnisotropicProblem, assemble_anisotropic
    from richlab.sparse import SparseMatrix

    K = assemble_anisotropic(AnisotropicProblem(1.0, 0.0, 8)).to_scipy()
    if kind == "indefinite":   # a shift into the middle of the spectrum
        return SparseMatrix.from_scipy(
            K - K.diagonal().mean() * scipy.sparse.identity(K.shape[0]))
    K = K.tolil()
    K[3, 3] = 0.0
    return SparseMatrix.from_scipy(K.tocsr())


@pytest.mark.parametrize("kind,flags,message", [
    ("indefinite", ["--weights", "chebyshev"],
     "spectral bounds failed: operator is not symmetric positive definite"),
    ("zero-diagonal", ["--weights", "literal", "--precond", "jacobi"],
     "preconditioner failed: zero diagonal entry in row 3"),
], ids=["indefinite", "zero-diagonal"])
def test_numerical_failure_of_the_operator_exits_1(kind, flags, message,
                                                   capsys, monkeypatch):
    import richlab.cli

    A = _operator(kind)
    monkeypatch.setattr(richlab.cli, "assemble", lambda prob: A)
    code, _, err = run_cli(["solve", "--n", "8"] + flags, capsys)
    assert code == 1
    assert err == message + "\n"


def test_train_takes_no_problem_flag(tmp_path, capsys):
    # both trainers fit anisotropic sets only
    with pytest.raises(SystemExit) as exc:
        main(["train", "--problem", "helmholtz", "--n", "32", "--count", "4",
              "--epochs", "1", "--output", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --problem" in capsys.readouterr().err


def test_spectral_bounds_of_a_complex_operator_stay_a_config_error(capsys):
    code, _, err = run_cli(["solve", "--problem", "helmholtz", "--n", "16",
                            "--frequency", "1", "--weights", "chebyshev"],
                           capsys)
    assert code == 2
    assert err == "error: spectral bounds require a real symmetric matrix\n"


def test_nan_frequency_is_a_config_error_that_names_the_field(capsys):
    code, out, err = run_cli(["assemble", "--problem", "helmholtz",
                              "--frequency", "nan", "--n", "16"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: angular_frequency must be finite and positive, "
                   "got nan\n")
