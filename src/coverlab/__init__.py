"""coverlab: covering systems of Z and coset covers of finite groups.

Exact verification of covering identities and index bounds, prime-power
threshold functions, a small-group catalog with subgroup machinery, and
desk-scale exhaustive searches.  Everything that can be exact is exact;
floating point appears only in clearly labelled diagnostics.

Public names are imported from their own module (coverlab.arith,
coverlab.zcover, coverlab.group, ...), so importing one layer loads only
the layers it uses.
"""

__version__ = "0.1.0"
