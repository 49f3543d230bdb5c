#!/bin/sh
# Regenerates every figure's data series into results/ (run from repo root).
set -x
T="--threads 1,2,4,8"
cargo run -q --release -p bench --bin fig11_conv_speedup -- $T --reps 3 > results/fig11.csv 2> results/fig11.log
cargo run -q --release -p bench --bin fig13_blocksizes   -- --threads 1,4 --reps 2 > results/fig13.csv 2> results/fig13.log
cargo run -q --release -p bench --bin fig14_s3dkt3m2     -- $T --reps 3 > results/fig14.csv 2> results/fig14.log
cargo run -q --release -p bench --bin fig15_debr         -- $T --reps 3 > results/fig15.csv 2> results/fig15.log
cargo run -q --release -p bench --bin fig16_lulesh       -- $T > results/fig16.csv 2> results/fig16.log
cargo run -q --release -p bench --bin ablation_atomics   -- --threads 1,4 --reps 2 --n 20000000 > results/ablation_atomics.csv 2>/dev/null
cargo run -q --release -p bench --bin ablation_keeper    -- --threads 1,4 --reps 2 > results/ablation_keeper.csv 2>/dev/null
cargo run -q --release -p bench --bin ablation_schedule  -- --threads 4 --reps 2 > results/ablation_schedule.csv 2>/dev/null
OPT_PROFILE=opt1 cargo run -q --profile opt1 -p bench --bin fig12_optlevels -- --threads 1,4 --reps 2 > results/fig12_opt1.csv 2>/dev/null
OPT_PROFILE=opt2 cargo run -q --profile opt2 -p bench --bin fig12_optlevels -- --threads 1,4 --reps 2 > results/fig12_opt2.csv 2>/dev/null
OPT_PROFILE=opt3-release cargo run -q --release -p bench --bin fig12_optlevels -- --threads 1,4 --reps 2 > results/fig12_opt3.csv 2>/dev/null
echo ALL_FIGURES_DONE
