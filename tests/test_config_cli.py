import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bridgeexit import (
    ConfigError,
    Hyperplane,
    NotSPD,
    RejectionBudgetExceeded,
    SolverOptions,
    VerticalBarrier,
    exit_asymptotics,
    grid_model_from_csv,
    hull_white_model,
    solve_geodesic,
)
from bridgeexit import cli
from bridgeexit.cli import load_run, main
from bridgeexit.config import (
    ConfigView,
    boundary_from_view,
    endpoints_from_view,
    freeze_points_from_view,
    model_from_view,
    parse_config_text,
    solver_from_view,
    t_list_from_view,
)
from bridgeexit.svgplot import Curve, Marker, extract_markers, render_svg

import decimalref as dref
import refvalues as ref


def view_of(text: str) -> ConfigView:
    return ConfigView(parse_config_text(text))


# ---- parser ---- #


def test_comments_and_blanks_are_ignored():
    raw = parse_config_text("# header\n\n x = 1, 2  # endpoint\n")
    assert raw.entries["x"] == ("1, 2", 3)


def test_missing_equals_reports_the_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("x = 1\njunk line\n")
    assert "line 2" in str(err.value)


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError) as err:
        parse_config_text("x = 1\n\nx = 2\n")
    msg = str(err.value)
    assert "line 3" in msg and "line 1" in msg


def test_malformed_key_and_empty_value():
    with pytest.raises(ConfigError) as err:
        parse_config_text("bad key! = 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config_text("x =\n")


def test_typed_getters_validate():
    v = view_of("a = 1.5\nb = nope\nc = maybe\nd = nan\n")
    assert v.get_float("a") == 1.5
    with pytest.raises(ConfigError):
        v.get_float("b")
    with pytest.raises(ConfigError):
        v.get_int("b")
    with pytest.raises(ConfigError):
        v.get_bool("c")
    with pytest.raises(ConfigError):
        v.get_float("d")
    with pytest.raises(ConfigError):
        v.get_str("missing")
    assert v.get_str("missing", default=None) is None


def test_point_lists():
    v = view_of("freeze = 1, 2; 3, 4\nbad = 1, 2; 3\n")
    pts = v.get_points("freeze")
    assert len(pts) == 2 and (pts[1] == np.array([3.0, 4.0])).all()
    with pytest.raises(ConfigError):
        v.get_points("bad")


def test_unknown_keys_fail_at_finish():
    v = view_of("x = 1\nmystery = 2\n")
    v.get_float("x")
    with pytest.raises(ConfigError) as err:
        v.finish()
    assert "mystery" in str(err.value)
    assert "line 2" in str(err.value)


# ---- builders ---- #


def test_model_builder_kinds():
    m = model_from_view(view_of("model.kind = hull_white_simple\n"))
    assert m.dim == 2
    m = model_from_view(
        view_of("model.kind = hull_white\nmodel.sigma_vol = 2\nmodel.rho = -0.5\n")
    )
    assert m.geometry.sigma_vol == 2.0
    m = model_from_view(view_of("model.kind = constant\nmodel.sigma = 1,0,0,1\n"))
    assert m.dim == 2
    with pytest.raises(ConfigError):
        model_from_view(view_of("model.kind = bogus\n"))
    with pytest.raises(ConfigError):
        model_from_view(view_of("model.kind = constant\nmodel.sigma = 1,0,0\n"))
    with pytest.raises(ConfigError):
        model_from_view(
            view_of("model.kind = hull_white\nmodel.rho = 1.5\n")
        )


def test_incomplete_metric_flag_round_trips():
    m = model_from_view(
        view_of("model.kind = constant\nmodel.sigma = 1,0,0,1\n"
                "model.complete = false\n")
    )
    assert m.complete is False


def test_boundary_builder():
    b = boundary_from_view(view_of("barrier.kind = vertical\nbarrier.x0 = 2.5\n"), 2)
    assert isinstance(b, VerticalBarrier) and b.x0 == 2.5
    b = boundary_from_view(
        view_of("barrier.kind = hyperplane\nbarrier.normal = 0, 2\n"
                "barrier.offset = 1\n"),
        2,
    )
    assert isinstance(b, Hyperplane)
    assert b.normal[1] == pytest.approx(1.0)
    assert b.offset == pytest.approx(0.5)
    assert boundary_from_view(view_of(""), 2) is None
    with pytest.raises(ConfigError):
        boundary_from_view(view_of(""), 2, required=True)
    with pytest.raises(ConfigError):
        boundary_from_view(view_of("barrier.kind = vertical\nbarrier.x0 = 1\n"), 3)
    with pytest.raises(ConfigError):
        boundary_from_view(
            view_of("barrier.kind = hyperplane\nbarrier.normal = 1\n"
                    "barrier.offset = 0\n"),
            2,
        )


def test_solver_endpoint_and_horizon_builders():
    opts = solver_from_view(view_of("solver.n = 64\nsolver.max_iter = 100\n"))
    assert opts.n == 64 and opts.max_iter == 100
    with pytest.raises(ConfigError):
        solver_from_view(view_of("solver.n = 1\n"))
    x, y = endpoints_from_view(view_of("x = 1, 2\ny = 3, 4\n"), 2)
    assert (x == [1.0, 2.0]).all() and (y == [3.0, 4.0]).all()
    with pytest.raises(ConfigError):
        endpoints_from_view(view_of("x = 1, 2, 3\ny = 1, 2\n"), 2)
    assert t_list_from_view(view_of("t = 0.2, 0.1\n")) == (0.2, 0.1)
    assert t_list_from_view(view_of("")) == ()
    with pytest.raises(ConfigError):
        t_list_from_view(view_of("t = 0.2, -0.1\n"))
    with pytest.raises(ConfigError):
        t_list_from_view(view_of(""), required=True)
    pts = freeze_points_from_view(view_of("freeze = 1, 2; 3, 4\n"), 2)
    assert len(pts) == 2
    assert freeze_points_from_view(view_of(""), 2) == []


# ---- svg primitives ---- #


def test_svg_marker_attributes_round_trip():
    curves = [Curve(np.array([[0.0, 0.0], [1.0, 1.0]]), "solid", "demo")]
    markers = [Marker(0.123456789012345, 0.9, role="pin", label="p")]
    svg = render_svg(curves, markers)
    got = extract_markers(svg)
    assert got["pin"][0] == pytest.approx(0.123456789012, rel=1e-12)
    assert got["pin"][1] == 0.9
    assert svg == render_svg(curves, markers)


def test_svg_curve_styles_are_encoded():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = render_svg(
        [Curve(pts, "solid", "a"), Curve(pts, "dashed", "b"),
         Curve(pts, "dotted", "c")]
    )
    assert svg.count("stroke-dasharray") == 2
    with pytest.raises(ValueError):
        Curve(pts, "wavy", "bad")


# ---- command-line driver ---- #


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


BROWNIAN = """\
model.kind = constant
model.sigma = 1, 0, 0, 1
x = 0, 0.5
y = 1, 0.3
barrier.kind = hyperplane
barrier.normal = 0, 1
barrier.offset = 0
t = 0.2, 0.1, 0.05
mc.n_paths = 20000
mc.n_steps = 30
mc.seed = 99
"""


def test_distance_command_on_bundled_config(capsys, tmp_path):
    out = str(tmp_path / "d.csv")
    code = main(["distance", "--config", "figure1", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "closed_form" in printed
    header, row = (tmp_path / "d.csv").read_text().strip().splitlines()
    assert header == "closed_form,numeric,rel_gap"
    closed, numeric, gap = row.split(",")
    assert float(closed) == pytest.approx(ref.A_D_XY, rel=1e-10)
    assert float(gap) < 1e-3


def test_geodesic_command_writes_a_path(tmp_path):
    out = str(tmp_path / "path.csv")
    code = main(["geodesic", "--config", "figure2", "--out", out])
    assert code == 0
    lines = (tmp_path / "path.csv").read_text().strip().splitlines()
    assert lines[0] == "s,coord_0,coord_1"
    first = [float(c) for c in lines[1].split(",")]
    last = [float(c) for c in lines[-1].split(",")]
    assert first[1:] == pytest.approx(list(ref.B_X))
    assert last[1:] == pytest.approx(list(ref.B_Y))


def test_exit_command_reports_true_and_frozen_rows(capsys, tmp_path):
    out = str(tmp_path / "exit.csv")
    code = main(["exit", "--config", "figure1", "--out", out])
    assert code == 0
    lines = (tmp_path / "exit.csv").read_text().strip().splitlines()
    assert lines[0].startswith("label,J,z_star_0,z_star_1,u_bar,d_xy,d_xz,d_zy,method")
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    true_row = rows["true"]
    assert float(true_row[1]) == pytest.approx(ref.A_J, rel=1e-9)
    assert float(true_row[3]) == pytest.approx(ref.A_Z_STAR_Y, rel=1e-9)
    frozen = [r for label, r in rows.items() if label.startswith("frozen@")]
    assert len(frozen) == 1
    assert float(frozen[0][1]) == pytest.approx(6.0, abs=1e-9)


def test_exit_keys_reach_the_true_row_when_freeze_points_are_set(tmp_path, capsys):
    def true_row(text):
        out = tmp_path / "exit.csv"
        assert main(["exit", "--config", write_cfg(tmp_path, "e.cfg", text),
                     "--out", str(out)]) == 0
        return out.read_text().splitlines()[1]

    # a straddled barrier under the path optimizer
    straddle = ("model.kind = hull_white_simple\nx = 1, 0.2\ny = 2, 0.5\n"
                "barrier.kind = vertical\nbarrier.x0 = 1.5\nsolver.n = 50\n"
                "exit.force_numeric = true\n")
    row = true_row(straddle + "freeze = 2, 0.5\n")
    assert row.endswith(",numeric_1d")
    assert row == true_row(straddle)
    capsys.readouterr()


def test_exit_command_rejects_incomplete_models(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "heston_like.cfg",
        "model.kind = constant\nmodel.sigma = 1, 0, 0, 1\n"
        "model.complete = false\n"
        "x = 0, 0.5\ny = 1, 0.3\n"
        "barrier.kind = hyperplane\nbarrier.normal = 0, 1\nbarrier.offset = 0\n",
    )
    code = main(["exit", "--config", cfg])
    assert code == 2
    assert "incomplete" in capsys.readouterr().err


def test_mc_command_matches_reference_and_is_idempotent(tmp_path):
    cfg = write_cfg(tmp_path, "b.cfg", BROWNIAN)
    out1 = str(tmp_path / "mc1.csv")
    out2 = str(tmp_path / "mc2.csv")
    assert main(["mc", "--config", cfg, "--out", out1]) == 0
    assert main(["mc", "--config", cfg, "--out", out2]) == 0
    b1 = (tmp_path / "mc1.csv").read_bytes()
    assert b1 == (tmp_path / "mc2.csv").read_bytes()
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 4
    last_cols = lines[1].split(",")
    assert float(last_cols[7]) == pytest.approx(0.3, rel=1e-9)


def test_mc_seed_flag_overrides_the_config(tmp_path):
    cfg = write_cfg(tmp_path, "b.cfg", BROWNIAN)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["mc", "--config", cfg, "--out", out1, "--seed", "1"]) == 0
    assert main(["mc", "--config", cfg, "--out", out2, "--seed", "2"]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_mc_degenerate_horizon_exits_4_but_writes_the_table(tmp_path, capsys):
    text = BROWNIAN.replace("t = 0.2, 0.1, 0.05", "t = 0.2, 0.1, 0.005")
    text = text.replace("mc.n_paths = 20000", "mc.n_paths = 500")
    cfg = write_cfg(tmp_path, "dead.cfg", text)
    out = str(tmp_path / "mc.csv")
    code = main(["mc", "--config", cfg, "--out", out])
    assert code == 4
    assert (tmp_path / "mc.csv").is_file()
    assert "resolvable" in capsys.readouterr().err


def test_figure_command_embeds_the_crossing_coordinates(tmp_path):
    svg_path = tmp_path / "fig.svg"
    code = main(["figure", "--config", "figure2", "--out", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    markers = extract_markers(svg)
    assert markers["crossing"][0] == pytest.approx(ref.B_BARRIER, abs=1e-9)
    assert markers["crossing"][1] == pytest.approx(ref.B_Z_STAR_Y, rel=1e-9)
    assert markers["frozen_crossing_0"][1] == pytest.approx(
        ref.B_FROZEN_CROSS_Y, abs=1e-9
    )
    assert 'data-role="barrier"' in svg
    # idempotent re-render
    svg2 = tmp_path / "fig2.svg"
    assert main(["figure", "--config", "figure2", "--out", str(svg2)]) == 0
    assert svg_path.read_bytes() == svg2.read_bytes()


# A constant metric against a slanted plane, scanned by the path optimizer
NUMERIC_PLANE_TEXT = (
    "model.kind = constant\nmodel.sigma = 1, 0, 0.3, 0.8\nx = 0, 0\ny = 0.1, 0.05\n"
    "barrier.kind = hyperplane\nbarrier.normal = 1, -0.3\nbarrier.offset = 2\n"
    "freeze = 0, 0\nexit.force_numeric = true\nsolver.n = 20\n"
)


def test_figure_with_an_endpoint_on_the_barrier_draws_no_empty_leg(tmp_path, capsys):
    # z* = x: the leg from x to z* has length 0, and drawing it exited 3
    svg_path = tmp_path / "fig.svg"
    cfg = write_cfg(tmp_path, "touch.cfg", "model.kind = hull_white_simple\nx = 1, 0.2\n"
                    "y = 2, 0.5\nbarrier.kind = vertical\nbarrier.x0 = 1\n")
    assert main(["figure", "--config", cfg, "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert 'data-role="crossing_leg_out"' in svg and "crossing_leg_in" not in svg
    assert extract_markers(svg)["crossing"] == pytest.approx((1.0, 0.2), abs=0.0)
    capsys.readouterr()


def test_figure_of_a_volatility_bridge_from_x_to_itself_exits_0(tmp_path, capsys):
    # the geodesic from x to x is one point, as the chord of a constant
    # geometry is; the half-plane arc through one point exited 3
    svg_path = tmp_path / "fig.svg"
    cfg = write_cfg(tmp_path, "loop.cfg", "model.kind = hull_white_simple\nx = 1, 0.5\n"
                    "y = 1, 0.5\nbarrier.kind = vertical\nbarrier.x0 = 2.5\n")
    assert main(["figure", "--config", cfg, "--out", str(svg_path)]) == 0
    assert 'data-role="geodesic"' in svg_path.read_text()
    assert main(["exit", "--config", cfg]) == 0
    assert "[true] J = 6.61349505019 " in capsys.readouterr().out


def test_exit_table_and_figure_agree(tmp_path, capsys):
    # the second config only reaches the solver scan through exit.* keys
    numeric = write_cfg(tmp_path, "numeric.cfg", NUMERIC_PLANE_TEXT)
    for config in ("figure1", numeric):
        out = str(tmp_path / "exit.csv")
        svg_path = tmp_path / "fig.svg"
        assert main(["exit", "--config", config, "--out", out]) == 0
        assert main(["figure", "--config", config, "--out", str(svg_path)]) == 0
        rows = (tmp_path / "exit.csv").read_text().strip().splitlines()[1:]
        true_cells = [r.split(",") for r in rows if r.startswith("true,")][0]
        frozen_cells = [r.split(",") for r in rows if r.startswith("frozen")]
        markers = extract_markers(svg_path.read_text())
        assert markers["crossing"][0] == float(true_cells[2])
        assert markers["crossing"][1] == float(true_cells[3])
        assert markers["frozen_crossing_0"][0] == float(frozen_cells[0][2])
        assert markers["frozen_crossing_0"][1] == float(frozen_cells[0][3])
    capsys.readouterr()


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.cfg", "model.kind = hull_white_simple\nx 1\n")
    out = str(tmp_path / "never.csv")
    code = main(["distance", "--config", cfg, "--out", out])
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # solver.coarse_init named a deleted option
    for key in ("mystery.knob", "solver.coarse_init"):
        cfg = write_cfg(
            tmp_path, "odd.cfg",
            f"model.kind = hull_white_simple\nx = 1, 0.2\ny = 2, 0.5\n{key} = 1\n",
        )
        assert main(["distance", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["distance", "--config", "no_such_config"]) == 2
    assert "neither" in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "hard.cfg",
        "model.kind = hull_white_simple\nx = 1, 0.2\ny = 2, 0.5\n"
        "solver.max_iter = 1\n",
    )
    code = main(["distance", "--config", cfg])
    assert code == 3
    assert "iteration" in capsys.readouterr().err


def test_singular_grid_diffusion_exits_2(tmp_path, capsys):
    # sigma vanishes on the column x = 3, where the barrier sits
    rows = ["x,v,s11,s12,s21,s22"]
    for xn in (0.0, 1.5, 3.0):
        for v in (0.1, 1.0, 2.0):
            s = 0.0 if xn == 3.0 else v
            rows.append(f"{xn},{v},{s},0,0,{s}")
    grid = tmp_path / "grid.csv"
    grid.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_cfg(
        tmp_path, "grid.cfg",
        f"model.kind = custom_grid\nmodel.grid_csv = {grid}\n"
        "x = 1, 0.5\ny = 1.4, 0.5\nbarrier.kind = vertical\nbarrier.x0 = 3\n"
        "solver.n = 50\n",
    )
    assert main(["exit", "--config", cfg]) == 2
    assert "not positive definite" in capsys.readouterr().err


def test_singular_grid_endpoint_is_refused_as_not_positive_definite(tmp_path, capsys):
    # the lattice above, with y on the column x = 3 where sigma vanishes:
    # the solver once failed later with "point outside the interpolation
    # lattice"
    rows = ["x,v,s11,s12,s21,s22"]
    for xn in (0.0, 1.5, 3.0):
        for v in (0.1, 1.0, 2.0):
            s = 0.0 if xn == 3.0 else v
            rows.append(f"{xn},{v},{s},0,0,{s}")
    text = "\n".join(rows) + "\n"
    model = grid_model_from_csv(text)
    with pytest.raises(NotSPD):
        solve_geodesic(model, (1.0, 0.5), (3.0, 1.0), SolverOptions(n=50))
    grid = tmp_path / "grid.csv"
    grid.write_text(text, encoding="utf-8")
    cfg = write_cfg(tmp_path, "grid.cfg", f"model.kind = custom_grid\n"
                    f"model.grid_csv = {grid}\nx = 1, 0.5\ny = 3, 1\nsolver.n = 50\n")
    assert main(["distance", "--config", cfg]) == 2
    assert "not positive definite" in capsys.readouterr().err


def test_boundary_without_a_numeric_chart_exits_2(tmp_path, capsys):
    # the solver scan charts planes in two dimensions only
    cfg = write_cfg(
        tmp_path, "flat3.cfg",
        "model.kind = constant\nmodel.sigma = 1, 0, 0, 0, 1, 0, 0, 0, 1\n"
        "x = 0, 0, 0.5\ny = 1, 0, 0.3\n"
        "barrier.kind = hyperplane\nbarrier.normal = 0, 0, 1\nbarrier.offset = 0\n"
        "exit.force_numeric = true\nsolver.n = 50\n",
    )
    assert main(["exit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "two-dimensional" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text, message", [
    # sinh(sigma_vol * S / 2) of the window's balls overflowed into a traceback
    ("model.kind = hull_white\nmodel.sigma_vol = 1.5\nmodel.rho = 0.5\n"
     "x = 1, 0.2\ny = 2, 0.5\nbarrier.kind = vertical\nbarrier.x0 = 1e200\n",
     "the scan window overflows"),
    # n . x - c overflowed with a numpy warning (a traceback under -W error)
    ("model.kind = hull_white_simple\nx = 1.7e308, 0.2\ny = 1.6e308, 0.5\n"
     "barrier.kind = vertical\nbarrier.x0 = -1.7e308\n",
     "the distance of x or y from the plane is not finite"),
    ("model.kind = hull_white_simple\nx = 1e200, 0.2\ny = -1.7e308, 0.5\n"
     "barrier.kind = vertical\nbarrier.x0 = 8e307\n",
     "the distance of x or y from the plane is not finite"),
    # printed J = nan and exited 0, and later squared the whitened
    # coordinates with a numpy overflow warning before refusing d(x, y)
    ("model.kind = constant\nmodel.sigma = 1, 0, 0, 1\nx = 1e200, 0.5\ny = -1e200, 0.3\n"
     "barrier.kind = hyperplane\nbarrier.normal = 0, 1\nbarrier.offset = 0\n",
     "d(x, y) = inf is not finite"),
    # the whitened reflection's norms squared a mirror image near 2e200,
    # with numpy overflow warnings, before J = inf was refused
    ("model.kind = constant\nmodel.sigma = 1, 0, 0, 1\nx = 0, 0.5\ny = 1, 0.3\n"
     "barrier.kind = hyperplane\nbarrier.normal = 0, 1\nbarrier.offset = -1e200\n",
     "the exit exponent J = inf is not finite"),
    # W @ (q - p) overflowed in the whitened norm, with a numpy warning
    ("model.kind = constant\nmodel.sigma = 0.7846407923160713, -0.12038743482830142, "
     "0.11480068553423206, 0.5082606174883146\n"
     "x = -1.184078178741398, 1.4531197236835232e+308\n"
     "y = 5.810321363694806e+307, 0.7488872458491528\nbarrier.kind = hyperplane\n"
     "barrier.normal = -0.08501654271430015, 0.23613528655132898\n"
     "barrier.offset = -2.877385345101687\n",
     "d(x, y) = inf is not finite"),
], ids=["window_sinh", "side_of_x", "side_of_y", "whitened_distance", "whitened_reflection",
        "whitened_difference"])
def test_exits_past_the_float_range_exit_2(text, message, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "far.cfg", text)
    assert main(["exit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


# mc and distance on inputs past the float range: each exits 2 with one
# error line, where a numpy warning once ended it with a traceback under
# -W error.
FAR_COMMANDS = {
    # n . x - c overflowed, and mc simulated every horizon on inf sides
    "mc_sides": ("mc", "model.kind = constant\nmodel.sigma = 1, 0, 0, 1\nx = 0, 1e308\n"
                 "y = 1, 1.5e308\nbarrier.kind = hyperplane\nbarrier.normal = 0, 1\n"
                 "barrier.offset = -1e308\nt = 0.1, 0.05, 0.02\n",
                 "the distance of x or y from the plane is not finite"),
    # the numeric solve ran before the closed form, and its chord overflowed
    "distance_far": ("distance", "model.kind = constant\nmodel.sigma = 1, 0, 0, 1\n"
                     "x = 1e308, 0.5\ny = -1e308, 0.3\n", "d(x, y) = inf is not finite"),
    # v^2 of x underflowed in the metric, read as "initial chord leaves the
    # domain"
    "distance_subnormal": ("distance", "model.kind = hull_white_simple\nx = 1e300, 1e-300\n"
                           "y = -1e300, 0.3\n", "the metric at x = "),
}


@pytest.mark.parametrize("case", sorted(FAR_COMMANDS))
def test_commands_past_the_float_range_exit_2(case, tmp_path, capsys):
    command, text, message = FAR_COMMANDS[case]
    cfg = write_cfg(tmp_path, "far.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert out == ""  # refused before any horizon or solve is reported


@pytest.mark.parametrize("normal, offset", [("1e200, 1e200", "3e200"),
                                            ("1e-200, 1e-200", "3e-200")])
def test_a_normal_whose_squared_norm_leaves_the_float_range_is_kept(normal, offset, tmp_path,
                                                                   capsys):
    # the squared norm overflowed (with a numpy warning) or underflowed, and
    # the plane was refused as "must be nonzero and finite"
    for n, c in ((normal, offset), ("1, 1", "3")):
        cfg = write_cfg(tmp_path, "normal.cfg",
                        "model.kind = constant\nmodel.sigma = 1, 0, 0, 1\nx = 0, 0.5\n"
                        f"y = 1, 0.3\nbarrier.kind = hyperplane\nbarrier.normal = {n}\n"
                        f"barrier.offset = {c}\n")
        assert main(["exit", "--config", cfg]) == 0
        assert "[true] J = 4.25 " in capsys.readouterr().out


def test_endpoints_a_subnormal_off_the_plane_exit_0(tmp_path, capsys):
    # both whitened side distances rounded to 0, and the whitened
    # reflection divided by their sum (ZeroDivisionError, a traceback)
    cfg = write_cfg(tmp_path, "subnormal.cfg",
                    "model.kind = constant\nmodel.sigma = 2, -5e-324, 3e-198, 1.7\n"
                    "x = 0, 0\ny = 0, 0\nbarrier.kind = vertical\nbarrier.x0 = -5e-324\n")
    assert main(["exit", "--config", cfg]) == 0
    assert "[true] J = 0 " in capsys.readouterr().out


RADIUS_TEXT = ("model.kind = hull_white\nmodel.sigma_vol = 1.5\nmodel.rho = 0\n"
               "x = -1e-300, 0.2\ny = -2e-300, 0.5\n")
# Inputs once refused as past the float range, whose answers are finite.
FINITE_NEAR_THE_FLOAT_RANGE = {
    # the reflection height, from a squared radius, underflowed to 0
    "half_plane_height": "model.kind = hull_white_simple\nx = 1, 1e-300\ny = 0.5, 1e20\n"
                         "barrier.kind = vertical\nbarrier.x0 = 2.5\n",
    # the mirror image of y lies 3e-300 across the barrier from x, so the
    # arc through them has a radius near 1e298, whose square overflowed
    "radius_vertical": RADIUS_TEXT + "barrier.kind = vertical\nbarrier.x0 = 0\n",
    "radius_hyperplane": RADIUS_TEXT + "barrier.kind = hyperplane\nbarrier.normal = 1, 0\n"
                                       "barrier.offset = 0\n",
    # the mirror image of y near -1.1e201 was refused because its squares
    # overflow, although nothing squares it; once it printed z_star = (1e+201, nan)
    "half_plane_image": "model.kind = hull_white_simple\nx = 1e200, 0.2\ny = -1e200, 0.5\n"
                        "barrier.kind = vertical\nbarrier.x0 = 1e201\n",
    # the straddle's crossing, read off a sampled geodesic, landed at v = 0
    # outside the domain; the exact one is at v = 2.09e-40
    "straddle_crossing_off_the_domain":
        "model.kind = hull_white_simple\nx = 0.9118936140904059, 0.6971717174555819\n"
        "y = -1.0138336670381496, 9.866223672883368e-201\nbarrier.kind = hyperplane\n"
        "barrier.normal = -1.2028662513475398e-20, -5.821181414383326e+19\n"
        "barrier.offset = -0.0\n",
}


@pytest.mark.parametrize("case", sorted(FINITE_NEAR_THE_FLOAT_RANGE))
def test_finite_answers_near_the_float_range_exit_0(case, tmp_path, capsys):
    text = FINITE_NEAR_THE_FLOAT_RANGE[case]
    assert main(["exit", "--config", write_cfg(tmp_path, "near.cfg", text)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("[true] J = ")
    run = load_run(view_of(text), needs=("barrier",))
    res = exit_asymptotics(run.model, run.x, run.y, run.boundary)
    sv, rho, b = run.model.geometry.sigma_vol, run.model.geometry.rho, run.boundary
    with localcontext() as ctx:
        ctx.prec = 700  # the radius cases cancel 600 digits of r^2
        if case.startswith("straddle"):
            J, z = Decimal(0), dref.straddle(sv, rho, run.x, run.y, b.normal, b.offset)
        else:
            x0 = b.x0 if isinstance(b, VerticalBarrier) else b.offset / b.normal[0]
            J, height = dref.reflection(sv, run.x, run.y, x0)
            z = (dref.dec(x0), height)
        # J of the radius cases is about 1e-600, and reads 0
        assert abs(dref.dec(res.J) - J) <= Decimal("1e-12") * J + Decimal("5e-324")
        for got, want in zip(res.z_star, z):
            assert abs(dref.dec(got) - want) <= Decimal("1e-12") * abs(want)
    assert res.geodesic_exits == case.startswith("straddle")


@pytest.mark.parametrize("sv", ["1e200", "1e-200"])
def test_a_sigma_vol_whose_square_leaves_the_float_range_exits_2(sv, tmp_path, capsys):
    # 1e200 squared raised OverflowError, reported as a bare errno message;
    # 1e-200 squared underflowed to 0 and divided the metric by it, with a
    # numpy warning, into an infinite metric
    cfg = write_cfg(tmp_path, "sv.cfg",
                    f"model.kind = hull_white\nmodel.sigma_vol = {sv}\n"
                    "x = 1, 0.2\ny = 2, 0.5\nbarrier.kind = vertical\nbarrier.x0 = 2.5\n")
    assert main(["exit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 2: sigma_vol = {float(sv)} is out of range")
    assert len(err.splitlines()) == 1
    with pytest.raises(ValueError, match="sigma_vol = .* is out of range"):
        hull_white_model(sigma_vol=float(sv), rho=0.5)


def test_a_result_that_is_not_finite_is_refused():
    from bridgeexit.exits import _assemble

    def dist(p, q):
        return float(np.linalg.norm(q - p))

    x, y = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    def legs(z):
        return 1.0, dist(x, z), dist(z, y)

    with pytest.raises(ValueError, match=r"crossing point z_star = \[ 1. nan\] is not finite"):
        _assemble(legs, np.array([1.0, np.nan]), "closed_form")
    with pytest.raises(ValueError, match="exit exponent J = nan is not finite"):
        _assemble(legs, np.array([0.5, 2.0]), "closed_form", J=math.nan)
    assert _assemble(legs, np.array([0.5, 2.0]), "closed_form").J > 0.0


def test_figure_requires_an_output_path(capsys):
    assert main(["figure", "--config", "figure1"]) == 2


# ---- exit codes over generated configs ---- #

SINGULAR_SIGMAS = ("0, 0, 0, 0", "1, 2, 2, 4", "1, 0, 0, 0")
# a magnitude times U(0.5, 1.5), of either sign: zero, values whose
# squares underflow or overflow, and everything between
EXTREME = st.builds(lambda m, u, sign: sign * m * u,
                    st.sampled_from((0.0, 1e-300, 1e-200, 1e-20, 1e-8, 0.1, 1.0, 3.0,
                                     1e8, 1e20, 1e200, 1e300)),
                    st.floats(0.5, 1.5), st.sampled_from((-1.0, 1.0)))


@st.composite
def exit_configs(draw):
    """(config text, whether some input is invalid) for the exit command.

    Only closed-form models (constant, hull_white, hull_white_simple), so
    no path solve runs.
    """
    bad = False
    kind = draw(st.sampled_from(["constant", "hull_white", "hull_white_simple"]))
    if kind == "constant":
        if draw(st.integers(0, 3)) == 0:
            sigma = draw(st.sampled_from(SINGULAR_SIGMAS))
            bad = True
        else:
            a, d = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
            b, c = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))
            sigma = f"{a!r}, {b!r}, {c!r}, {d!r}"
        lines = ["model.kind = constant", f"model.sigma = {sigma}"]
        v_lo = -3.0  # the whole plane is the domain
    elif kind == "hull_white":
        sv = draw(st.one_of(st.floats(0.2, 3.0), st.floats(-1.0, 0.0)))
        rho = draw(st.one_of(st.floats(-0.95, 0.95),
                             st.sampled_from([-1.0, 1.0, 1.5, 0.0])))
        bad |= sv <= 0.0 or abs(rho) >= 1.0
        lines = ["model.kind = hull_white", f"model.sigma_vol = {sv!r}",
                 f"model.rho = {rho!r}"]
        v_lo = 0.05
    else:
        lines = ["model.kind = hull_white_simple"]
        v_lo = 0.05
    for name in ("x", "y"):
        u = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([math.inf, -math.inf]),
                           EXTREME))
        v = draw(st.one_of(st.floats(v_lo, 3.0), st.floats(-2.0, 0.0),
                           st.sampled_from([math.inf]), EXTREME))
        # the volatility models' domain is v > 0
        bad |= not (math.isfinite(u) and math.isfinite(v)) or v_lo > 0.0 and v <= 0.0
        lines.append(f"{name} = {u!r}, {v!r}")
    barrier = draw(st.sampled_from(["vertical", "hyperplane", "hyperplane3"]))
    offset = draw(st.one_of(st.floats(-4.0, 4.0), EXTREME))
    if barrier == "vertical":
        lines += ["barrier.kind = vertical", f"barrier.x0 = {offset!r}"]
    else:
        normal = [draw(st.one_of(st.just(1.0), EXTREME)),
                  draw(st.one_of(st.floats(-0.5, 0.5), EXTREME))]
        bad |= barrier == "hyperplane3" or not any(normal)
        normal += [0.0] * (barrier == "hyperplane3")
        lines += ["barrier.kind = hyperplane",
                  "barrier.normal = " + ", ".join(map(repr, normal)),
                  f"barrier.offset = {offset!r}"]
    return "\n".join(lines) + "\n", bad


@given(exit_configs())
@settings(max_examples=60, deadline=None)
def test_exit_codes_over_generated_configs(case):
    text, bad = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "gen.cfg", Path(tmp) / "out.csv"
        cfg.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["exit", "--config", str(cfg), "--out", str(out)])
        rows = list(csv.DictReader(out.open())) if code == 0 else []
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if bad:
        assert code == 2, text
    for row in rows:
        J = float(row["J"])
        assert math.isfinite(J) and J >= 0.0, text


# Configs the property test above once drew that raised: a plane whose
# normal normalizes to a first entry of 1.0 without being vertical
# (mirrored as a vertical one), and reflections with x = y whose mirror gap
# underflows.  Half-plane distances do not depend on scale.
NEAR_VERTICAL = ("model.kind = hull_white_simple\nx = 0, 1\ny = 1e-300, 2\n"
                 "barrier.kind = hyperplane\nbarrier.normal = 1.0, -1e-300\n"
                 "barrier.offset = 0.0\n")
NEAR_VERTICAL_UP = ("model.kind = hull_white_simple\nx = 0, 1\ny = 0, 2\n"
                    "barrier.kind = hyperplane\n"
                    "barrier.normal = 1.0, 3.5134758369485516e-267\nbarrier.offset = 0.0\n")
COINCIDENT_ENDPOINTS = ("model.kind = hull_white_simple\nx = 0, 1\ny = 0, 1\n"
                        "barrier.kind = vertical\nbarrier.x0 = 3.5134758369485516e-267\n")
COINCIDENT_LOW = ("model.kind = hull_white_simple\nx = 1e-300, 1e-300\ny = 1e-300, 1e-300\n"
                  "barrier.kind = vertical\nbarrier.x0 = 0.0\n")
# x = (1, 1) and y = (2, 1) scaled by 1e-300, whose 2 x_v y_v underflows:
# the mirror gap once read log(9) for acosh(5.5) - acosh(1.5)
SCALED_LOW = ("model.kind = hull_white_simple\nx = 1e-300, 1e-300\ny = 2e-300, 1e-300\n"
              "barrier.kind = vertical\nbarrier.x0 = 0.0\n")


@pytest.mark.parametrize("text, J", [(NEAR_VERTICAL, 0.0), (NEAR_VERTICAL_UP, 0.0),
                                     (COINCIDENT_ENDPOINTS, 0.0),
                                     # d(x, x') = 2 asinh(1) at every scale
                                     (COINCIDENT_LOW, 2.0 * math.asinh(1.0) ** 2),
                                     (SCALED_LOW, 0.5 * (math.acosh(5.5) ** 2
                                                         - math.acosh(1.5) ** 2))],
                         ids=["near_vertical", "near_vertical_up", "coincident", "coincident_low",
                              "scaled_low"])
def test_near_vertical_planes_and_coincident_endpoints_exit_cleanly(text, J, tmp_path):
    # without a numpy warning, with a crossing inside the domain
    import warnings

    cfg, out = tmp_path / "gen.cfg", tmp_path / "out.csv"
    cfg.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli(["exit", "--config", str(cfg), "--out", str(out)])
    assert code == 0 and "Traceback" not in err
    row = next(csv.DictReader(out.open()))
    assert float(row["J"]) == pytest.approx(J, rel=1e-10)
    assert float(row["z_star_1"]) > 0.0


# ---- one loader for every command ---- #

COMMAND_NAMES = ("distance", "geodesic", "exit", "mc", "figure")
BUNDLED = ("figure1", "figure2", "brownian_barrier")
# Exit code of every command on every bundled config.  mc on figure1 lands
# no path within eps of y and exits 4; every other pair succeeds.
BUNDLED_CODES = {(cmd, cfg): 0 for cmd in COMMAND_NAMES for cfg in BUNDLED}
BUNDLED_CODES["mc", "figure1"] = 4


def run_cli(argv):
    """main(argv) with captured streams: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_every_command_runs_every_bundled_config(command, tmp_path):
    for cfg in BUNDLED:
        out = str(tmp_path / f"{command}_{cfg}.out")
        # results are bitwise independent of the Monte Carlo thread count
        code, err = run_cli([command, "--config", cfg, "--out", out, "--workers", "2"])
        assert code == BUNDLED_CODES[command, cfg], (cfg, err)


FIGURE1_TEXT = (
    "model.kind = hull_white_simple\nx = 1, 0.2\ny = 2, 0.5\n"
    "barrier.kind = vertical\nbarrier.x0 = 2.5\nfreeze = 2, 0.5\nt = 0.05\n"
)
PLANE_TEXT = (
    "model.kind = constant\nmodel.sigma = 1, 0, 0, 1\nx = 0, 0.5\ny = 1, 0.3\n"
    "barrier.kind = hyperplane\nbarrier.normal = 0, 1\nbarrier.offset = 0\n"
    "t = 0.2, 0.1\n"
)
STRAY_KEYS = [
    (FIGURE1_TEXT, "mc.n_path = 1000"),
    (FIGURE1_TEXT, "exit.truncation_factr = 8"),
    (FIGURE1_TEXT, "figure.m = 50"),
    (FIGURE1_TEXT, "solver.nn = 50"),
    (PLANE_TEXT, "barrier.x0 = 2.5"),
    (FIGURE1_TEXT, "model.sigma = 1, 0, 0, 1"),
    (FIGURE1_TEXT, "model.b = 0.3"),
]


@pytest.mark.parametrize("command", COMMAND_NAMES)
@pytest.mark.parametrize("base, stray", STRAY_KEYS, ids=[k for _, k in STRAY_KEYS])
def test_every_command_rejects_a_key_no_block_reads(command, base, stray, tmp_path):
    cfg = write_cfg(tmp_path, "stray.cfg", base + stray + "\n")
    out = tmp_path / "never.out"
    code, err = run_cli([command, "--config", cfg, "--out", str(out)])
    key = stray.split(" =")[0]
    assert code == 2
    assert f"line {len(base.splitlines()) + 1}" in err and repr(key) in err
    assert not out.exists()


def test_mc_takes_the_drift_from_the_model(tmp_path, monkeypatch):
    seen = []

    def sampler(sigma_vol, rho, b, mu, *args, **kwargs):
        seen.append((sigma_vol, rho, b, mu))
        raise RejectionBudgetExceeded("stub")

    monkeypatch.setattr(cli, "hw_crossing_probability", sampler)
    text = FIGURE1_TEXT.replace("hull_white_simple", "hull_white\nmodel.sigma_vol = 1.5\n"
                                "model.rho = 0.25\nmodel.b = 0.3\nmodel.mu = -0.1")
    assert run_cli(["mc", "--config", write_cfg(tmp_path, "hw.cfg", text)])[0] == 4
    assert seen == [(1.5, 0.25, 0.3, -0.1)]
    seen.clear()
    assert run_cli(["mc", "--config", write_cfg(tmp_path, "s.cfg", FIGURE1_TEXT)])[0] == 4
    assert seen == [(1.0, 0.0, 0.0, 0.0)]


def test_mc_takes_the_exit_and_solver_keys_for_analytic_J(tmp_path, monkeypatch):
    seen = []

    def exact(model, x, y, boundary, **kwargs):
        seen.append(kwargs)
        return exit_asymptotics(model, x, y, boundary, **kwargs)

    monkeypatch.setattr(cli, "exit_asymptotics", exact)
    text = BROWNIAN.replace("mc.n_paths = 20000", "mc.n_paths = 2000") + (
        "exit.force_numeric = true\nsolver.n = 40\n")
    assert run_cli(["mc", "--config", write_cfg(tmp_path, "b.cfg", text)])[0] == 0
    [kw] = seen
    assert kw["opts"].n == 40
    assert kw["force_numeric"] is True


@pytest.mark.parametrize("keys", [
    "mc.batch_size = 0",  # looped forever before it was refused
    "mc.n_attempts = 0\nmc.min_accepted = 0",  # divided by zero
    "mc.min_accepted = 0",
    "mc.n_steps = 0",
])
def test_mc_refuses_bad_volatility_counts(keys, tmp_path):
    text = cli._resolve_config_text("figure2") + keys + "\n"
    code, err = run_cli(["mc", "--config", write_cfg(tmp_path, "m.cfg", text)])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_mc_refuses_fewer_than_one_worker(workers, tmp_path):
    # both forms used to run serially and exit 0
    code, err = run_cli(["mc", "--config", "brownian_barrier", "--workers", workers])
    assert (code, err) == (2, "error: --workers must be at least 1\n")
    text = BROWNIAN + f"mc.workers = {workers}\n"
    code, err = run_cli(["mc", "--config", write_cfg(tmp_path, "w.cfg", text)])
    line = text.count("\n")
    assert (code, err) == (2, f"error: line {line}: mc.workers must be at least 1\n")


def test_every_getter_names_the_key_and_line_of_a_bad_value():
    v = view_of("a = 1\nf = one\ni = 1.5\nb = maybe\nfs = 1, x\np = 1, 2; 3\n"
                "s = other\nnan = nan\n")
    cases = [(v.get_float, "f", 2), (v.get_int, "i", 3), (v.get_bool, "b", 4),
             (v.get_floats, "fs", 5), (v.get_points, "p", 6),
             (lambda k: v.get_str(k, choices=("one", "two")), "s", 7),
             (v.get_float, "nan", 8), (v.get_points, "nan", 8)]
    for get, key, line in cases:
        with pytest.raises(ConfigError) as err:
            get(key)
        assert str(err.value).startswith(f"line {line}: {key} must be ")
    assert v.get_float("missing", default=2.5) == 2.5
    assert v.get_points("missing", default=None) is None


# ---- values that used to exit 0 with a wrong answer ---- #


def test_exit_command_refuses_the_removed_window_factor_key(tmp_path):
    # every window is bounded by the model's geometry or domain, so no
    # length factor is read any more
    text = ("model.kind = hull_white\nmodel.sigma_vol = 1.1\nmodel.rho = 0.3\n"
            "x = 1, 0.2\ny = 2, 0.5\nbarrier.kind = hyperplane\n"
            "barrier.normal = 1, 0.2\nbarrier.offset = 2.6\nexit.truncation_factor = 4\n")
    code, err = run_cli(["exit", "--config", write_cfg(tmp_path, "w.cfg", text)])
    assert code == 2 and "line 9: unknown key 'exit.truncation_factor'" in err


def test_solver_options_refuse_an_infinite_or_negative_grad_tol(tmp_path):
    for tol in (math.inf, -1e-8):
        with pytest.raises(ValueError, match="grad_tol"):
            SolverOptions(grad_tol=tol)
    assert SolverOptions(grad_tol=0.0).grad_tol == 0.0
    # grad_tol = inf used to return the unminimized chord, rel_gap 0.294
    cfg = write_cfg(tmp_path, "g.cfg", "model.kind = hull_white_simple\n"
                    "x = 1, 0.2\ny = 2, 0.5\nsolver.grad_tol = inf\n")
    code, err = run_cli(["distance", "--config", cfg])
    assert code == 2 and "grad_tol" in err


@pytest.mark.parametrize("bad", ["inf", "-inf"])
def test_an_infinite_barrier_is_refused_with_its_line(bad, tmp_path):
    with pytest.raises(ConfigError) as err:
        boundary_from_view(view_of(f"barrier.kind = vertical\nbarrier.x0 = {bad}\n"), 2)
    assert str(err.value) == f"line 2: vertical barrier x0 must be finite, got {bad}"
    with pytest.raises(ConfigError) as err:
        boundary_from_view(view_of("barrier.kind = hyperplane\nbarrier.normal = 1, 0.2\n"
                                   f"barrier.offset = {bad}\n"), 2)
    assert str(err.value) == f"line 3: hyperplane offset must be finite, got {bad}"
    # a bad normal is still reported at its own line
    with pytest.raises(ConfigError) as err:
        boundary_from_view(view_of("barrier.kind = hyperplane\nbarrier.normal = inf, 0\n"
                                   f"barrier.offset = {bad}\n"), 2)
    assert str(err.value) == "line 2: hyperplane normal must be nonzero and finite"
    vertical = write_cfg(tmp_path, "x0.cfg", FIGURE1_TEXT.replace("x0 = 2.5", f"x0 = {bad}"))
    slanted = write_cfg(tmp_path, "offset.cfg", (
        "model.kind = hull_white\nmodel.sigma_vol = 1\nmodel.rho = 0.3\n"
        "x = 1, 0.2\ny = 2, 0.5\nbarrier.kind = hyperplane\n"
        f"barrier.normal = 1, 0.2\nbarrier.offset = {bad}\n"))
    for cfg, line, key in ((vertical, 5, "x0"), (slanted, 8, "offset")):
        for command in ("exit", "figure"):
            code, err = run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"line {line}: " in err and f"{key} must be finite" in err


def test_an_infinite_horizon_is_refused_with_its_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        t_list_from_view(view_of("x = 1\nt = 0.1, inf\n"))
    assert "line 2" in str(err.value)
    cfg = write_cfg(tmp_path, "inf.cfg", FIGURE1_TEXT.replace("t = 0.05", "t = inf"))
    for command in ("exit", "mc"):
        code, err = run_cli([command, "--config", cfg])
        assert code == 2 and "line 7" in err and "horizon" in err


# ---- cold start and output bytes ---- #

# sha256 of the bundled outputs: a change to any number the commands write
# moves its pin
BUNDLED_OUTPUT_SHA256 = {
    ("exit", "figure1"): "f6ba5a2c0bb6c8189bab0b720883d152997c4a9133618bcf6f2c0945f4648428",
    ("exit", "figure2"): "6771aebcffbf03b5f1a18d918a0ee0989393397c05b712bd4f09640e83443a46",
    ("exit", "brownian_barrier"):
        "bdeff9af5d82441b54b69b97961883e8ddfbf32cca49ba4207ed249e3a112710",
    ("figure", "figure1"): "094ad9067e200ff0981fa313ccd427080b058cffd4baf727e1ef3377fdb59d09",
    ("figure", "figure2"): "72d943c45477969f32a6adf6054c305bc56e12ffd1c9a9d19a3808c1729a6754",
}


@pytest.mark.parametrize("command, cfg", sorted(BUNDLED_OUTPUT_SHA256))
def test_bundled_outputs_keep_their_bytes(command, cfg, tmp_path):
    out = tmp_path / "out"
    code, err = run_cli([command, "--config", cfg, "--out", str(out)])
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUNDLED_OUTPUT_SHA256[command, cfg]


COLD_SCRIPT = """\
import contextlib, io, sys
from bridgeexit import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for name in ("figure1", "figure2", "brownian_barrier"):
    run("exit", "--config", name)
run("mc", "--config", sys.argv[1])
print(scipy_modules())
# the path optimizer does load it: the check above can fail
run("distance", "--config", "figure1")
print("scipy.linalg" in scipy_modules())
"""


def test_closed_form_and_monte_carlo_commands_never_import_scipy(tmp_path):
    # a fresh interpreter, since this one may hold scipy already
    import bridgeexit

    cfg = write_cfg(tmp_path, "mc.cfg",
                    BROWNIAN.replace("mc.n_paths = 20000", "mc.n_paths = 2000"))
    src = str(Path(bridgeexit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", COLD_SCRIPT, cfg], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]
