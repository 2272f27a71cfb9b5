#!/bin/bash
# Regenerates every experiment result (results/) and the canonical
# test/bench transcripts. Run from the repository root.
set -u
mkdir -p results
cargo build --release -p dynastar-bench 2>&1 | tail -1
for b in fig2_repartitioning fig8_oracle_load table1_partition_load fig3_tpcc_scalability fig5_latency_cdf fig4_social_throughput fig6_dynamic_workload ablation_modes fig7_partitioner_scaling fig9_migration_interference fig10_parallel_execution; do
  echo "=== $b start $(date +%T) ==="
  timeout 1200 ./target/release/$b > results/$b.txt 2> results/$b.log
  echo "=== $b exit=$? end $(date +%T) ==="
done
echo ALL_EXPERIMENTS_DONE
