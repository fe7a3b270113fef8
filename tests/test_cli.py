import json
import subprocess
import sys

import numpy as np
import pytest

from rmpsc.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_anchor_128_60(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--imin", "27", "--n", "7", "--absorption"], capsys
        )
        assert code == 0
        assert "K: 60" in out
        assert "equivalent_classes: 2205" in out
        assert err.startswith("# config")

    def test_json_matches_human(self, capsys):
        code, human, _ = run_cli(["analyze", "--imin", "19", "--n", "6"], capsys)
        assert code == 0
        code, js, _ = run_cli(["analyze", "--imin", "19", "--n", "6", "--json"], capsys)
        assert code == 0
        payload = json.loads(js)
        assert payload["K"] == 37
        assert payload["symmetry"] == 2
        for key, value in payload.items():
            assert f"{key}: {value}" in human

    def test_rate_one_flagged(self, capsys):
        code, out, _ = run_cli(["analyze", "--imin", "0", "--n", "3", "--json"], capsys)
        payload = json.loads(out)
        assert payload["K"] == 8
        assert payload["rate_one"] is True
        assert payload["extreme_dimension"] is True

    def test_spec_file_input(self, tmp_path, capsys):
        from rmpsc.codes import CodeSpec

        path = tmp_path / "code.json"
        CodeSpec.from_i_min({19}, 6).save(path)
        code, out, _ = run_cli(["analyze", "--spec", str(path), "--json"], capsys)
        assert json.loads(out)["K"] == 37

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"n": 6}', 'fields "n" and "i_min"'),
            ('[6, 19]', 'fields "n" and "i_min"'),
            ('{"n": 6, "i_min": 19}', '"i_min" must be a list of integers'),
            ('{"n": 6, "i_min": [19.7]}', '"i_min" must be a list of integers'),
            ('{"n": "6", "i_min": [19]}', '"n" must be an integer'),
            ('{"n": -1, "i_min": [0]}', "n must be non-negative, got -1"),
        ],
        ids=["no_i_min", "array", "scalar_i_min", "float_i_min", "string_n", "negative_n"],
    )
    def test_malformed_spec_file(self, tmp_path, capsys, spec, message):
        path = tmp_path / "code.json"
        path.write_text(spec)
        code, out, err = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 1
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and message in last

    def test_missing_code_args(self, capsys):
        code, _, err = run_cli(["analyze"], capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--imin", "27", "--n", "7", "--bogus"])
        assert exc.value.code == 2


class TestSearch:
    def test_atlas_n4(self, capsys):
        code, out, _ = run_cli(["search", "--n", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,K,max_t,i_min,blta_structure,absorption_structure"
        assert len(lines) == 1 + (11 - 5 + 1)
        for line in lines[1:]:
            assert line.startswith("16,")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["search", "--n", "4", "--seed", "3", "--out", str(a)]) == 0
        assert main(["search", "--n", "4", "--seed", "3", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_reliability_file_accepted(self, tmp_path, capsys):
        from rmpsc.codes import beta_expansion_reliability

        rel = beta_expansion_reliability(4)
        path = tmp_path / "rel.txt"
        path.write_text("".join(f"{i}\n" for i in rel.order))
        code, out, _ = run_cli(["search", "--n", "4", "--rel", str(path)], capsys)
        assert code == 0
        assert out.count("\n") == 8

    def test_reliability_file_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text("".join(f"{i}\n" for i in range(8)))
        code, _, err = run_cli(["search", "--n", "4", "--rel", str(path)], capsys)
        assert code == 1
        assert "error:" in err


class TestSimulate:
    def test_csv_shape_and_tub(self, tmp_path, capsys):
        out = tmp_path / "fer.csv"
        code = main(
            [
                "simulate", "--imin", "11", "--n", "5", "--dec", "sc",
                "--ebn0", "1:3:1", "--max-trials", "500",
                "--target-errors", "500", "--seed", "2", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ebn0_db,trials,errors,fer,ci95,tub"
        assert len(lines) == 4

    def test_tub_beyond_weight_walks(self, tmp_path, capsys):
        # (128,60) is too large for either codeword walk; the closed-form
        # multiplicity 33048 still gives the bound column
        out = tmp_path / "fer.csv"
        code = main(
            [
                "simulate", "--imin", "27", "--n", "7", "--ebn0", "3",
                "--max-trials", "64", "--target-errors", "64", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "ebn0_db,trials,errors,fer,ci95,tub"
        from rmpsc.channel import tub_ml_bound

        assert float(row.split(",")[-1]) == pytest.approx(tub_ml_bound(16, 33048, 60 / 128, 3.0))

    def test_ae_m1_equals_sc(self, tmp_path, capsys):
        sc, ae = tmp_path / "sc.csv", tmp_path / "ae.csv"
        base = [
            "simulate", "--imin", "11", "--n", "5", "--ebn0", "2:2:1",
            "--max-trials", "400", "--target-errors", "400", "--seed", "5",
        ]
        assert main(base + ["--dec", "sc", "--out", str(sc)]) == 0
        assert main(base + ["--dec", "ae", "--m", "1", "--out", str(ae)]) == 0
        capsys.readouterr()
        assert sc.read_bytes() == ae.read_bytes()

    def test_perm_replay_logged(self, tmp_path, capsys):
        out = tmp_path / "fer.csv"
        code = main(
            [
                "simulate", "--imin", "11", "--n", "5", "--dec", "ae", "--m", "2",
                "--ebn0", "2:2:1", "--max-trials", "200",
                "--target-errors", "200", "--seed", "1", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        replay = tmp_path / "fer.perms.txt"
        assert replay.exists()
        from rmpsc.autgroup import load_permutations

        perms = load_permutations(replay, 32)
        assert len(perms) == 2
        assert np.array_equal(perms[0].perm, np.arange(32))

    def test_m_exceeding_classes_fails(self, capsys):
        code, _, err = run_cli(
            [
                "simulate", "--imin", "3", "--n", "2", "--dec", "ae", "--m", "100",
                "--ebn0", "2:2:1", "--max-trials", "100", "--target-errors", "100",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_zero_workers_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "simulate", "--imin", "11", "--n", "5", "--ebn0", "1:1:1",
                "--max-trials", "100", "--target-errors", "10", "--workers", "0",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        # rejected before the AE permutations are sampled and logged
        out = tmp_path / "ae.csv"
        code, _, err = run_cli(
            [
                "simulate", "--imin", "19", "--n", "6", "--dec", "ae", "--m", "4",
                "--max-trials", "100", "--target-errors", "10", "--workers", "0",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.with_suffix(".perms.txt").exists()

    def test_zero_m_fails(self, tmp_path, capsys):
        out = tmp_path / "ae.csv"
        code, _, err = run_cli(
            [
                "simulate", "--imin", "19", "--n", "6", "--dec", "ae", "--m", "0",
                "--max-trials", "100", "--target-errors", "10", "--out", str(out),
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.with_suffix(".perms.txt").exists()

    def test_byte_identical_with_workers(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "simulate", "--imin", "11", "--n", "5", "--ebn0", "1:2:1",
            "--max-trials", "300", "--target-errors", "30", "--seed", "9",
        ]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestExtend:
    def test_prediction_matches(self, tmp_path, capsys):
        out = tmp_path / "ext.json"
        code, stdout, _ = run_cli(
            ["extend", "--imin", "19", "--n", "6", "--out", str(out)], capsys
        )
        assert code == 0
        assert "predicted_blta: 4;3" in stdout
        assert "computed_blta: 4;3" in stdout
        assert "match: True" in stdout
        from rmpsc.codes import CodeSpec

        ext = CodeSpec.load(out)
        assert ext.N == 128 and ext.i_min == (19,)

    def test_non_rm_polar_rejected(self, capsys):
        code, _, err = run_cli(["extend", "--imin", "24", "--n", "5"], capsys)
        assert code == 1
        assert "error:" in err


class TestSamplePerms:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "perms.txt"
        code = main(
            ["sample-perms", "--imin", "19", "--n", "6", "--m", "3",
             "--seed", "4", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        from rmpsc.autgroup import load_permutations

        perms = load_permutations(out, 64)
        assert len(perms) == 3

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["sample-perms", "--imin", "11", "--n", "5", "--m", "2", "--seed", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_zero_m_fails(self, tmp_path, capsys):
        out = tmp_path / "perms.txt"
        code, _, err = run_cli(
            ["sample-perms", "--imin", "19", "--n", "6", "--m", "0", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rmpsc.cli", "analyze", "--imin", "3", "--n", "2", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["K"] == 1

    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rmpsc.cli", "frobnicate"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
