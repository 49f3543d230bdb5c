#!/bin/sh
set -x
cargo run -q --release -p bench --bin ablation_atomics   -- --threads 1,4 --reps 2 --n 20000000 > results/ablation_atomics.csv 2>/dev/null
cargo run -q --release -p bench --bin ablation_keeper    -- --threads 1,4 --reps 2 > results/ablation_keeper.csv 2>/dev/null
cargo run -q --release -p bench --bin ablation_schedule  -- --threads 4 --reps 2 > results/ablation_schedule.csv 2>/dev/null
OPT_PROFILE=opt1 cargo run -q --profile opt1 -p bench --bin fig12_optlevels -- --threads 1,4 --reps 3 > results/fig12_opt1.csv 2>/dev/null
OPT_PROFILE=opt2 cargo run -q --profile opt2 -p bench --bin fig12_optlevels -- --threads 1,4 --reps 3 > results/fig12_opt2.csv 2>/dev/null
OPT_PROFILE=opt3-release cargo run -q --release -p bench --bin fig12_optlevels -- --threads 1,4 --reps 3 > results/fig12_opt3.csv 2>/dev/null
echo RERUN_DONE
