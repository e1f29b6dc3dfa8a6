"""Numerical workbench for the U(1)-current and Virasoro chiral algebras."""
