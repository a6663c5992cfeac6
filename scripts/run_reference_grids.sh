#!/usr/bin/env bash
# Desk-scale versions of the toolkit's standard experiment grids.
# Outputs land in ./grids_out as self-describing CSV files.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=grids_out
mkdir -p "$OUT"

# error-ratio sweeps along n, four model families (fixed-dimension regime).
# The logistic grid starts at n = 100: tiny logistic shards go separable, and
# failed machine fits abort a replication rather than biasing the average.
for model in ols ridge nls; do
  "${PYTHON:-python3}" -m splitavg.cli ratio-sweep --model "$model" --p 10 --m 10 \
    --n-grid 50,200,1000 --reps 200 --seed 7 --sigma2 10 \
    --out "$OUT/ratio_${model}.csv"
done
"${PYTHON:-python3}" -m splitavg.cli ratio-sweep --model logistic --p 10 --m 10 \
  --n-grid 100,200,1000 --reps 200 --seed 7 \
  --out "$OUT/ratio_logistic.csv"

# bias and MSE against the second-order expansion along m (N fixed)
"${PYTHON:-python3}" -m splitavg.cli bias-mse --model ols --p 20 --N 20000 \
  --m-grid 10,20,40 --reps 500 --sigma2 2 --theta-norm 10 --seed 7 \
  --out "$OUT/bias_mse_ols.csv"
"${PYTHON:-python3}" -m splitavg.cli bias-mse --model ridge --p 20 --N 20000 \
  --m-grid 10,20,40 --reps 500 --sigma2 2 --theta-norm 10 --penalty 1 --seed 7 \
  --out "$OUT/bias_mse_ridge.csv"

# proportional-regime MSE ratio (does not drift back to 1)
"${PYTHON:-python3}" -m splitavg.cli highdim-sweep --model ols --kappa 0.2 --m 10 \
  --n-grid 250,500 --reps 300 --seed 7 --out "$OUT/highdim_ols.csv"

# accuracy-loss ratio grid and the machine-count planning examples
"${PYTHON:-python3}" -m splitavg.cli table1 --out "$OUT/table1.csv"
"${PYTHON:-python3}" -m splitavg.cli plan --mode fixed-N --N 1e6 --p 100 --sigma2 10 \
  --total-eps 2e-3 --out "$OUT/plan_fixed_N.csv"
"${PYTHON:-python3}" -m splitavg.cli plan --mode fixed-n --n 1e4 --p 100 --sigma2 10 \
  --total-eps 2e-3 --out "$OUT/plan_fixed_n.csv"
"${PYTHON:-python3}" -m splitavg.cli plan --mode fixed-N --N 1e6 --p 100 --sigma2 10 \
  --constraint relative --rel-eps 0.1 --out "$OUT/plan_relative.csv"

# Monte-Carlo z-tests of the rank-one Wishart product identities
"${PYTHON:-python3}" -m splitavg.cli wishart-check --reps 1e6 --p-grid 1,2,5 \
  --out "$OUT/wishart.csv"

echo "all grids written to $OUT/"
