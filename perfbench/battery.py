"""The 58 fixed witness inputs, as argument texts for the default alphabet.

A copy of the entries of tests/batteries.py, kept here so that the
benchmark's inputs stay the same on every commit; the test suite of the
benchmark checks that the two agree.
"""

P2P3 = [
    ('a', '~c', '~c~c'),
    ('a', '~c', '~c~c~c'),
    ('b', '~a', '~a~a'),
    ('ab', '~c~c', '~c'),
    ('a', 'b', '~c'),
    ('a', 'bb', '~c'),
    ('b', 'aa', '~c~c'),
    ('a', 'b~c', 'bb~c~c'),
    ('a', 'b~d', 'bb~d~d'),
    ('ab', 'c~d', 'cc~d~d'),
    ('a', 'bc~d', 'bcbc~d~d'),
    ('a', 'b~c', 'bb~c'),
    ('a', 'bb~c', 'b~c'),
    ('c', 'a~b~b', 'aa~b'),
    ('c', 'aa~b', 'a~b~b'),
]

NONCONJUGATED = [
    ('a~b', 'a~b', 'a~b', 'a', 'b'),
    ('aa~b', 'a~b', 'a~b', 'a', 'b'),
    ('a~b', 'aa~b', 'a~b', 'a', 'b'),
    ('a~b', 'a~b', 'aa~b', 'a', 'b'),
    ('a~b~b', 'a~b', 'a~b', 'a', 'b'),
    ('a~b', 'a~b~b', 'aa~b', 'a', 'b'),
    ('aa~b~b', 'a~b', 'a~b', 'a', 'b'),
    ('a~ba~b', 'a~b', 'aa~b', 'a', 'b'),
    ('ab~a', 'ab~a', 'ab~a', 'ab', 'a'),
    ('abab~a', 'ab~a', 'ab~a', 'ab', 'a'),
    ('ab~a', 'ab~a~a', 'ab~a', 'ab', 'a'),
    ('ab~a', 'ab~a', 'abab~a~a', 'ab', 'a'),
    ('a~b~c', 'a~b~c', 'a~b~c', 'a', 'bc'),
]

# (u, v, w, g, h, rotation the builder picks)
CONJUGATED = [
    ('a~a', 'a~a', 'a~a', '', 'a', 'trivial'),
    ('~aa', 'a~a', 'a~a', '', 'a', 'trivial'),
    ('a~a', '~aa', '~aa', '', 'a', 'trivial'),
    ('a~aa~a', 'a~a', '~aa', '', 'a', 'trivial'),
    ('a~aa', 'a~a', 'a~a', '', 'a', 'trivial'),
    ('a~a', 'a~aa', 'a~a', '', 'a', 'vwu'),
    ('~aa', 'a~aa', '~aa', '', 'a', 'vwu'),
    ('a~a', 'a~a', 'a~aa', '', 'a', 'wuv'),
    ('a~a', '~aa', 'a~aa', '', 'a', 'wuv'),
    ('~aa~a', 'a~a', 'a~a', '', 'a', 'vwu'),
    ('a~a', '~aa~a', 'a~a', '', 'a', 'wuv'),
    ('a~a', 'a~a', '~aa~a', '', 'a', 'trivial'),
    ('~ba~ab', '~ba~ab', '~ba~ab', 'a', 'b', 'trivial'),
    ('~b~aab', '~ba~ab', '~ba~ab', 'a', 'b', 'trivial'),
    ('~ba~abab', '~ba~ab', '~ba~ab', 'a', 'b', 'trivial'),
    ('~ba~ab', '~ba~abab', '~b~aab', 'a', 'b', 'vwu'),
    ('~b~a~ba~ab', '~ba~ab', '~ba~ab', 'a', 'b', 'vwu'),
]

P4 = [
    ('a', 'a', '~b', '~b'),
    ('aa', 'a', '~b', '~b~b'),
    ('a', 'aa', '~b', '~b'),
    ('a', 'a', '~b~b', '~b'),
    ('a', 'a', '~b', '~ba'),
    ('a~a', 'a', '~b', '~b'),
    ('aa', 'aa', '~b', '~b'),
    ('a', 'a', '~b~b', '~b~b'),
    ('ab', 'ab', '~c', '~c'),
    ('abab', 'ab', '~c', '~c~c'),
    ('a', 'a', '~b~c', '~b~c'),
    ('a', 'a', '~b', '~b~b~b'),
    ('c', 'c', '~a', '~a~a'),
]
