"""Exact computation with the uniform-cover cone of log projection volumes.

Enumerate irreducible uniform covers, test cone membership exactly, decide
implication of candidate inequalities with Farkas certificates or separating
witnesses, compute exact projection volumes of box-union bodies, and realize
interior cone vectors as actual bodies by scaling.
"""
