"""The generated hive kernels of ranks 1 to 6, written by
tools/regen_kernels.py: do not edit."""
