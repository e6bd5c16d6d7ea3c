from checks import check_main_output, check_manifest, compare_dirs
from workloads import WORKLOADS

DESK = WORKLOADS["desk-l4"]


def write_convergence(path, slope_mean="2.05", first_err="0.001"):
    path.mkdir(exist_ok=True)
    rows = [f"{eps},{first_err if eps == 0.25 else '0.004'},0.001,0.001,200"
            for eps in (0.25, 0.5, 1)]
    path.joinpath("convergence.csv").write_text("\n".join(
        ["# schema=1", "eps,err_mean_h1,err_var_w11,mc_stderr_mean,n_samples"]
        + rows + [f"# slope_mean {slope_mean}", "# slope_var 2.1"]) + "\n")


def test_plausible_output_passes_away_from_reference_seed(tmp_path):
    write_convergence(tmp_path / "a")
    assert check_main_output(str(tmp_path / "a"), DESK, seed=5) == []


def test_bad_slope_and_non_positive_error_are_reported(tmp_path):
    write_convergence(tmp_path / "a", slope_mean="1.0", first_err="-0.001")
    problems = check_main_output(str(tmp_path / "a"), DESK, seed=5)
    assert any("slope_mean" in p for p in problems)
    assert any("non-positive" in p for p in problems)


def test_reference_seed_compares_numbers(tmp_path):
    write_convergence(tmp_path / "a")
    problems = check_main_output(str(tmp_path / "a"), DESK, seed=0)
    assert problems and "reference" in problems[0]


def test_manifest_rank_change_is_reported(tmp_path):
    (tmp_path / "kl_manifest.txt").write_text(
        "# seed=0\nvector_modes=47\nvector_chol_rank=79\n"
        "coeff_modes=9\ncoeff_chol_rank=14\n")
    assert check_manifest(str(tmp_path), DESK) == [
        "kl_manifest.txt: vector_chol_rank=79, expected 78"]


def test_compare_dirs_finds_byte_difference(tmp_path):
    for name, text in (("a", "1.0\n"), ("b", "1.0000000000000002\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "mc.csv").write_text(text)
    assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "a")) == []
    assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == [
        "mc.csv differs between --threads 1 and 2"]
