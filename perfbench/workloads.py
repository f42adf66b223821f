"""The three benchmark workloads.

Each workload has the same shape:

* ``setup()`` generates the model (timed as ``setup_s``);
* ``run(model, stage)`` is one timed pass; ``stage(name)`` is a context
  manager that times one stage of the pass;
* ``summary(out)`` returns the pass's count metrics;
* ``checks(model, out)`` returns ``(name, ok, detail)`` triples and runs
  after the timer has stopped.

The seed only moves the evaluation points of the sigma sweeps and the
cells picked for checking; the models and training samples are fixed.

Calls go through the ``lrmor`` package attributes, looked up at call time,
so that a traced pass reaches the wrapped functions.
"""

from __future__ import annotations

import numpy as np

import lrmor


def _log_uniform(rng, lo, hi, k):
    return np.sort(10.0 ** rng.uniform(np.log10(lo), np.log10(hi), k))


def _sigma(h):
    return float(np.linalg.norm(np.atleast_2d(h), 2))


class FdHeat:
    """LR-ADI, Newton, BT and IRKA on the FD heat model, n = grid^2."""

    name = "fd-heat"
    # fixed check frequencies for the sampled BT error
    bt_omegas = np.logspace(-1.0, 5.0, 7)

    def __init__(self, seed: int, tiny: bool = False):
        del seed  # the workload is the same for every seed
        self.grid = 10 if tiny else 100

    def setup(self):
        return lrmor.gen_fd_laplacian(self.grid)

    def run(self, model, stage):
        with stage("lyap_s"):
            adi = lrmor.lr_adi(lrmor.LyapunovSpec(model, "N"),
                               lrmor.AdiOptions(rel_tolerance=1e-10))
        with stage("care_s"):
            newton = lrmor.lr_newton(lrmor.RiccatiSpec(model, "T"))
        with stage("bt_s"):
            rom, report = lrmor.balanced_truncation(model, tol=1e-4)
        with stage("irka_s"):
            ir = lrmor.irka(model, 8)
        return {"adi": adi, "newton": newton, "rom": rom, "report": report,
                "irka": ir}

    def summary(self, out):
        return {"factor_cols": out["adi"].z.columns + out["newton"].z.columns}

    def checks(self, model, out):
        lyap = lrmor.lyap_residual(lrmor.LyapunovSpec(model, "N"),
                                   out["adi"].z).relative
        newton = out["newton"]
        care = lrmor.riccati_residual(lrmor.RiccatiSpec(model, "T"),
                                      newton.z).relative
        rom, bound = out["rom"], out["report"].error_bound
        bt_err = max(_sigma(lrmor.transfer_eval(model, 1j * w)
                            - rom.transfer(1j * w)) for w in self.bt_omegas)
        ir = out["irka"]
        return [
            ("lyap_true_residual", lyap <= 1e-10, f"{lyap:.3e} <= 1e-10"),
            ("care_residual", newton.converged and care <= 1e-9,
             f"{care:.3e} <= 1e-9, converged={newton.converged}"),
            ("bt_error_bound", bt_err <= bound + 1e-8,
             f"{bt_err:.3e} <= {bound:.3e} + 1e-8"),
            ("irka_converged", bool(ir.converged), f"{ir.n_iter} iterations"),
        ]


class ThermalPmor:
    """Acceptance-8 protocol: train, assemble both ROMs, sweep both ROMs."""

    name = "thermal-pmor"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        grid, self.samples, k, n_checked = \
            (10, 6, 5, 10) if tiny else (24, 10, 30, 60)
        self.cfg = lrmor.BenchConfig(grid_size=grid, samples_per_axis=k)
        self.mus = _log_uniform(rng, *self.cfg.mu_range, k)
        self.omegas = _log_uniform(rng, *self.cfg.omega_range, k)
        self.cells = rng.choice(k * k, n_checked, replace=False)

    def setup(self):
        return lrmor.gen_thermal_block_mini(self.cfg)

    def run(self, model, stage):
        with stage("train_s"):
            ts = lrmor.train(model,
                             lrmor.log_samples(*model.domain, self.samples),
                             "bt-tol", tol=1e-4)
            prom = lrmor.piecewise_assemble(ts, truncation_tol=1e-6,
                                            one_sided=True)
            irom = lrmor.interpolatory_assemble(ts)
        with stage("rom_sweep_s"):
            grids = [lrmor.sigma_grid(rom, mus=self.mus,
                                      omegas=self.omegas)
                     for rom in (prom, irom)]
        return {"roms": (prom, irom), "grids": grids}

    def summary(self, out):
        return {"rom_order": out["roms"][0].order}

    def checks(self, model, out):
        prom = out["roms"][0]
        k = len(self.omegas)
        err, dev = [], [0.0, 0.0]
        for cell in self.cells:
            i, j = divmod(int(cell), k)
            mu, s = self.mus[i], 1j * self.omegas[j]
            h = lrmor.transfer_eval(model.instantiate(mu), s)
            err.append(_sigma(h - prom.transfer(mu, s)) / _sigma(h))
            for g, rom in enumerate(out["roms"]):
                ref = _sigma(rom.transfer(mu, s))
                dev[g] = max(dev[g], abs(out["grids"][g].values[i, j] - ref)
                             / ref)
        share = float(np.mean(np.asarray(err) <= 1e-2))
        results = [("pmor_error_grid", share >= 0.6,
                    f"error <= 1e-2 on {share:.1%} of {len(err)} cells "
                    f"(>= 60%)")]
        # the sweep must agree with the ROM's own transfer function
        for label, grid, worst in zip(("piecewise", "interpolatory"),
                                      out["grids"], dev):
            nans = int(np.isnan(grid.values).sum())
            results.append((f"{label}_sigma_grid",
                            nans == 0 and worst <= 1e-10,
                            f"{nans} NaN cells, deviation {worst:.2e} "
                            f"<= 1e-10"))
        return results


class ThermalSweep:
    """Full-order sigma grid: one complex LU per cell, never reused."""

    name = "thermal-sweep"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        grid, k, n_checked = (10, 4, 2) if tiny else (32, 40, 3)
        self.cfg = lrmor.BenchConfig(grid_size=grid)
        self.mus = _log_uniform(rng, *self.cfg.mu_range, k)
        self.omegas = _log_uniform(rng, *self.cfg.omega_range, k)
        self.cells = rng.choice(k * k, n_checked, replace=False)

    def setup(self):
        return lrmor.gen_thermal_block_mini(self.cfg)

    def run(self, model, stage):
        with stage("sweep_s"):
            grid = lrmor.sigma_grid(model, mus=self.mus, omegas=self.omegas)
        return {"grid": grid}

    def summary(self, out):
        return {}

    def checks(self, model, out):
        values = out["grid"].values
        nans = int(np.isnan(values).sum())
        results = [("no_nan_cells", nans == 0, f"{nans} NaN cells")]
        k = len(self.omegas)
        for cell in self.cells:
            i, j = divmod(int(cell), k)
            sys_mu = model.instantiate(self.mus[i])
            # independent referee: dense complex solve of (sE - A) X = B
            s = 1j * self.omegas[j]
            x = np.linalg.solve(s * sys_mu.dense_e() - sys_mu.a.toarray(),
                                sys_mu.b)
            ref = _sigma(sys_mu.c @ x + sys_mu.d)
            rel = abs(values[i, j] - ref) / ref
            results.append((f"dense_cell_{i}_{j}", rel <= 1e-10,
                            f"relative deviation {rel:.2e} <= 1e-10"))
        return results


WORKLOADS = {w.name: w for w in (FdHeat, ThermalPmor, ThermalSweep)}
