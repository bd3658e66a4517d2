"""Genus of the modular curve X0(N) and the statistics of its values.

The genus comes from the exact integer identity

    12 (g0(N) - 1) = mu - 3 nu2 - 4 nu3 - 6 nu_inf,

where mu is the index of the level-N congruence subgroup, nu2 and nu3
count elliptic points, and nu_inf counts cusps; all four are
multiplicative and evaluated from factorizations.  Each name is imported
from the module that defines it:

- x0genus.arith: factorization and the cached prime lists;
- x0genus.genus: the closed forms, the genus of one level and the block
  sieve over level ranges (iter_blocks);
- x0genus.values: the values never attained as a genus, the six-family
  parity classification and the 2**(s-2) congruence;
- x0genus.bounds: sharp lower/upper bounds with exact equality detection;
- x0genus.stats: partial averages, residue-class densities and
  histograms, the Dirichlet-series identity and the growth constants;
- x0genus.cli: the x0genus command.
"""
