"""Pinned CNFs and solver runs of the satisfiability procedures.

Every candidate CNF that sat_bbll and sat_bounded_finite hand to the solver
is captured by wrapping _Cnf.solve, and a SHA-256 of (nvars, clauses) is
compared with digests taken before the encoders and the solver were tuned
for speed. A second digest covers what the solver did with it: its clause
list after the run (learnt clauses included, with each clause's literals
in the order the watch scheme left them) and its final trail. Encoding or
search changes that keep verdicts but move a gate, a clause or a
propagation step show up here first.
"""

import hashlib
import json

import pytest

from hslogic import sat
from hslogic.parser import parse_formula

CASES = [
    # single-step B and iB contradictions
    ("bbll", "<B> p & [B] ~p"),
    ("bbll", "<iB> p & [iB] ~p"),
    # B well-foundedness
    ("bbll", "<B> ~p & [B] (~p -> <B> ~p)"),
    # satisfiable cases of test_golden.BBLL_CASES, through L and iL
    ("bbll", "<B> p & <iB> ~p & <L> q & <iL> (p & q)"),
    ("bbll", "<L> (p & [B] q) & <iL> <iB> ~q"),
    ("finite 6", "<A> p & <D> q & [O] ~p & <iE> (q | <iA> p)"),
]

# per case: one (cnf digest, solver digest) pair per candidate, in order
EXPECTED = {
    'bbll <B> p & [B] ~p': [
        ('d09a15d4d22e21a1518f79ce02da3e9b3362b80f0f143ce633208e900d0d8f6a',
         '1aad2dbda9ca9828b893fc6e256197e6b6e6a3e0fe7c95f334c96922360b4d18'),
        ('11dff655c3feaae3ae9cb026a40d6e4878845ebb5c1355ee2ba17523584fd8bb',
         '90ea1cdd9a2f76ed042b6b924372883239a5617a9491c894854e4d286e05647b'),
        ('0513141b1a7219d090217d535336e065a5c0122a3f2342f60db0adc43840499c',
         '4f09cf4db05249a9624c9c00819d6bb7e2de7d3766e52d08629761bb641fe5f3'),
        ('6f53755c910792a20f0d89bb76563a342def46690a9eaefcada9c20701428968',
         '901ee0b4395a171d80f1089a4da272da7ad2174b4cd9cfba7db6a610b472806d'),
        ('1174b78fbf3fd84d1c05df1d6ea98c373cb81c5ddf0cc67913515a7fbfe6f847',
         '3e2a0484474422c464ad5e20ab7f5e19bb905dcd4095c16bf21e43c335e9ac91'),
        ('f8e59f0963e7d23d4d2bb7a19cb33ac42b8f3fe3231149a9d203ad911b51a2f3',
         'cc38823b4c4c63acc8dacb2bb178a061d0779450dd5f70efff1536ca9fd5e7ae'),
        ('21ba7844f22b84bb7eb87175d89da637fea4772f0909412f4309755c1aa1295c',
         '3fe7ddd970fb151d0a3444f9c5fc2cb2280d6f98810089b69af90c101d2ef461'),
        ('59b5e4e76c6037bc4cc54fc0587217ae11ea364997ab410be2997d7ba2ec9388',
         '88ac6f5df7ae29a6b14ef760108c124b1154be20fe47cbae2489383d979a5806'),
        ('1591c88b7968500e3ac60bfc0e57d3998b3d1e39f8e9764a27bdff8164d18816',
         '3c0f651fa7836e26a84d9bebe8948bf2eafffd760506005008a7724bacaf73ce'),
        ('98a0e2822c7b28732c05d51304163da851a130235d57af141c67dc6d26acb882',
         'de6d5c79cdaedf4a63008e51bbe52dee678163428e6c3b8a65a2c9534f601493'),
        ('abb6dc0d3f626e87ce211987f1a681a8baa585d32ed0df3569b01ee933c94af3',
         '0b2f0b281cb4ef813be03bfbfe24336a3e46b1977b004e1fc58052cccef80e34'),
        ('b35fd2fdffb5ffc09d634fc225988de6a142248979a8f09004e93a233a53884b',
         'd0b5c1df8f6137a66a9be478cba31506bd05d01cc21c41fd339389395c5a0662'),
        ('18e6416fa45fcc6066bca30c2524c7be8e2d0ff38cce9fa4047f93489d299ab0',
         'bdc568bf004762f4a483a11c353fb5c5b9c55156f939cb9e7073a8c065dadebf'),
        ('925b7840c2233a89769d09270e59e457df0b0fed0545f9739252e985a23f7bc0',
         'ba5d81b4fe422748f3506d4668edbf834a525d284f3e2ec5c5709da78f23a602'),
        ('2a636194b32abd826851cf457c35b1cbd14381742e689951992ebbbfe96aebdd',
         '6f0740d553c3e79edf97dde21a5b4a4255bfd503dee75615df91a19d9e704b5a'),
    ],
    'bbll <iB> p & [iB] ~p': [
        ('d09a15d4d22e21a1518f79ce02da3e9b3362b80f0f143ce633208e900d0d8f6a',
         '1aad2dbda9ca9828b893fc6e256197e6b6e6a3e0fe7c95f334c96922360b4d18'),
        ('289293108d5504add2cc603397a5c7af3391e69901b6609b69581e9e37a3849c',
         '9fcb0a6b2721e9b5e89dbf1a9fa0cdb43232b0642977aa7f58c53061f69cd2aa'),
        ('f668dba9184520a6ca4c84e8238a79bfe74c89206f105e82b3ff969dd6eb3a85',
         '1aad2dbda9ca9828b893fc6e256197e6b6e6a3e0fe7c95f334c96922360b4d18'),
        ('ee36f080cf94aa27afd3b700a2e92bf2f97dc4da8997fc7415cd374a7993bace',
         '47fe290b9f4d0cffc85371dfd3b7a429eb34694c164ab858c49e0893fdef71df'),
        ('47546455146ba6752f836bfb5339a332f9a476f8d14b956f10514e4250af76ac',
         '600c3e311ec7c8f816c1ed55932394144af5ee7cdb9644fe54634da201248992'),
        ('b333a0c2b9cec718875fdc1e73c3698a7c510d86811bfb49b73c7c79ad9b4821',
         '8ca4cdb8c2fecf671e7534b972c064f8a176604d5a865af280b5f89e431ab744'),
        ('3fdbb951facc3863e412dd0a488444e7c04dcc843c954e94f8ef411727c9814f',
         '8932566839f2068225bafade9f32b9ad4c746b46b98a616366bbc468d7a6a817'),
        ('81a73ed37dbb763333db1fa43832d1a35375890a35943fef92cf3373322cc91d',
         '521b830bdba19f3990b86bd0e005fcc36b5ec47c883dc31b92e7308140220b56'),
        ('0e5658dea32aff8cb405eacbd15eeb81b742cad13e11f1805b5480ae31ab11f7',
         'bdfe35a416b23690a9eda9515d11191a8bf00a2b42e77e07c6797da1aef49618'),
        ('dcc907a7268152da8715f95aeae85e0fcb13ddf7d27238e10a1218a7da41f892',
         '6145ed0dc22f3317f36392d2d9a813536d95fe79417d1c87514661e86e89e9ee'),
        ('9432f8399261ec3cd67278c86c380edad7541cb928566f1b4516b517b4ff4838',
         '6bc07644aa70e91d191600762639308e26b2ca65db2fffddeb2a30405acdf444'),
        ('555db27985d273b7ab866c47bd8d027332b5c36578c082a0078824d38ddcc930',
         '4ef66c0204e0bf175b7fc640adb91ea260c18a0ba19b901d1bfcb139e22784bd'),
        ('4385a67b88537b53efc9d52abfe905455c9b7cf58d044773724ef71d491c1723',
         '7c27d1d89bebe807a0c68933e24168703c7d08fbd996239d39abe7c4580c675c'),
        ('102a135a2326c5528277f8602ee07cddf13394dd26b47c9f76da7da7827bd6d0',
         'a7457f486359a608230192caceaba8c6ae817324e5ca1659ed67a9f2db58d0a0'),
        ('bb5dd00e6e0f68bde1e7a6be1d38f84cae6ccb0a7473336845324fc5799e5ce5',
         '7a9c63f8661a84607be8d5913bb0f2752217da2a2ebea32088551e6c561c18e1'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('d09a15d4d22e21a1518f79ce02da3e9b3362b80f0f143ce633208e900d0d8f6a',
         '1aad2dbda9ca9828b893fc6e256197e6b6e6a3e0fe7c95f334c96922360b4d18'),
        ('0687406c7bed2ef7c35111ca30c30b376fcfa9c1616fd616d6fac5169da64327',
         '91ed35d7583eaee30a7f21850387c7d8563c3a9c455356bf47083ce8411a90a7'),
        ('502df59dfed8be264238821577f48730812450b89f4747c815fd03c433e0f8b5',
         '915e55655777670bbf490197c35a1308995a775167730581daf7877103529575'),
        ('5ba934c6ba786520e466d8b88aeafd04bd6d6e7014729050c15f009d74703c07',
         '7c6a912316402753a660ef6c27977fa61c0aae0035c88e723d3183c3f4750ac4'),
        ('62f4b9ffd62de17ef4f5e32131b08fcd72a41326262b64b71ac58e20c1d8a729',
         'd72238578aaff83a30689c2a02eaf7391ef8e7c6a4be63f6e9c9ecfbdc5afa1b'),
        ('7f26ccfc6555cf0b081b3de112064c3c2452be3d31eb5bf9eb9abfd714a5f75b',
         'a121c89551603ccadba074801615658195c07c8a15f77a3705481e65de576576'),
        ('52795579ace2f28c53ddff09bdef573c1b9b80497f670b711a1f49bc7fbe125d',
         '249c97b77dc09a9ac858d6a3935d6a3669ecd8051be9fc30965f55c76ad4722f'),
        ('5046ae3010da75c770369b2a98f7d84fb101ce1c9b025c248ef249b805ba6e82',
         'e956227a121178fbd40e7d1416025c0860df48d53ef33793c75c6b0711d183c9'),
        ('62fb6e7f7dec15e03a04f7c22e0d39517070cfd80e2decb02ac1206ef10db8c6',
         '579f9a5f5174637df204272469b8956d87fc1b2cc766df8bafd9a79f565f1ca5'),
        ('cfb0a7f9dcb31e0459ac00d85077208dd366a7e1bdf301ab6028a0903969d95e',
         '58ddeb5b1cc8943a8ef3b1016c4914c3c8a19b26a5173c7d23f617d0b95f69c1'),
        ('8bea2c18dd103d1565dd87aed6b7bea71f90ccf455fef8b9af66be2aa5c20106',
         '26cf2d84d758d2e870c529af8617fc4249f7f014e509daef60aa41003e1f45b0'),
        ('b105e9a33f67ff3ccf2e7b1312cdaac3b3be1b32fc2107000f6cef63710592ce',
         'fbb75d285685a16f4c64b1fb079e916794ff350088161da94f2dbb524e1edcd4'),
        ('261b90bd3d1b60d7bf6d28415bc105bef195b13ec03eada0aad934f33d28b920',
         'a991ebf57e6228e9aaa1a7f681df7f0b396365bb5856e3e40d83ade393bcc5da'),
        ('6b613b66f9c7ad392c804e937b0affce845bccc442cb282a7a49cdda03ba5827',
         'f37d50805fbadc3d844966dc68dcc7ed075029c53b32a2c73ac7be3da2cc17f7'),
        ('4c8a4ac5b96d805eb3ba185d837072ae031d355d58d865cd9c914cdf4859773c',
         '518017ea459aafbdef8e3746d7a917468c56d4a425654e37ac3cc725a6566395'),
        ('3a751f679b37a226930b8820e7ac6a5f468fe2e5de1c29ff144eb29920aea9c5',
         '7c01dd255d01a177ce9fba1da2a37ed12a6a662e4d0fc097b75e4a6eb1e89928'),
        ('56834c4435e84865a410b377c0580f893483a35b8f6717dfc0968965c06f59f4',
         'ca39eeed5b1348f60d56f7a5e039a60f258005aaf28483dfb0583d846470c128'),
        ('19b40e63dd0d6c33984a6c27c835b089f31b3af177c780808a9c34b721cee095',
         '11ce3809e2c9cfee7d1e0e8a20eb94561cffa1d2be1cbbad97c5a07527aee34d'),
        ('5b8156332030fffb6712bd241adf77bc5bec4bc38223ef40afded35005fd0ae8',
         '8b619d0d8dfa425bb88b5c2557deab7129573d25171931ddf5ea28a9983d789f'),
        ('f115f72e82baa5feda5a69d58e4135ebe84d024d3cba8499f7bdefae502b3952',
         'c266142042ca2dfc9149e78839d70aa5e8d7beb3b300b205d8b3b6c8c0322ff1'),
        ('451efb860bb6819801d25625fcd3d9a1b000c737a61c621b07ece84dbdeb5cd2',
         'c728d715e302383964378ac991073cd7d5d59a305107efd3d1f3eacc1d02e1ba'),
        ('5eee7d5695e9ee2378c1668bc2f7c283cc16200815433c0281841a628c1edb8d',
         '7bb11eca81348d70e4062ccd2bdf8e1abad13e31f9bc19234b05102e5cda446c'),
        ('55ab2fbec9b5c04c686019697042557aa6bb14a4ab8b7b07bc6cdec6b43dccda',
         '8824e6b255ee8d769d78d8dce164e2b9df020c4953cfbea2bdf1111bd228f6f6'),
        ('70b441dbf441c2239a3be1390e6a5f44cd44bbfe0089a0668d9da41cd3810a29',
         'e7fae3714a5c73cd1486fd25fe32b79fdd5ce88e738bfcb26e24aa065a4cac5b'),
        ('a3054caeeb7bdd0807f1e54da37c5970820bf37419873e9421826f13db7a482e',
         'db6129d370b7bd45e0abdcfa0160353e3fda16f97a838a9ef194154a1fe58cc6'),
        ('69d134f2012defb87130b66d6862ee07a1cc54d7ccb2b7dc7bf1065ca90b6416',
         '83684d45c3bd86a1fcd1ca074e19cf8e2129586341f735838c229cd65d764a1d'),
        ('5db6d7907f16c9fbdf965dedbad1aceb790015c892cd32d6e532f5a23490a65c',
         'f931ccbd2b6ceeb43c41a0f37c7e17e6f67bdf822850953f9c2af407a94cf730'),
        ('d703ac59de530a9f27c4c6ce2350f85e5e9f9401a7feceae07368aeecf6f12f5',
         'c61aacf2a0376e466897c719e48251a03c41adbae3bdf596ea72fd1928cbbc91'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('ddf21e38830bc9405937bc39214db352d4270f497befb7799c47b8a2bbc5092d',
         'a8ce801f992d65d389bb3b452aa3c1ab0db4563945ab4b46a9dbf96397512e96'),
        ('81cc2c849995585b00849c55e70bbf5e89a3ae141141a98c6e25657ddfd5ffbe',
         'f4cc36ab35b34e96a4a8ad2d4d6c8f25c53ee61d2a8e03b72b057ac2e0da2f47'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('f9417ef946b95e61d76b40f713c75e63919dc92f77532a68d73b3eb0ff661684',
         '965622d6e7ec1ca4a7ee5467e315d0086c44682b3bdeb9623cd3f8ae4b227627'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('1af7a20d20dddf0302538fba1d4d52d6936642d06845a7da6671107a85cf9cc4',
         'e172b0cfb013261fe8dc451f6c583e06bf7cb8d3b37022b683d4d0d621fcffbe'),
    ],
}


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_capturing(monkeypatch, kind, text):
    runs = []
    solvers = []
    base_solver = sat.Solver
    orig_solve = sat._Cnf.solve

    class RecordingSolver(base_solver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    def solve(cnf):
        solvers.clear()
        cnf_digest = _digest([cnf.nvars, cnf.clauses])
        out = orig_solve(cnf)
        (s,) = solvers
        runs.append((cnf_digest, _digest([out is not None, s.clauses,
                                          s.trail])))
        return out

    monkeypatch.setattr(sat, "Solver", RecordingSolver)
    monkeypatch.setattr(sat._Cnf, "solve", solve)
    phi = parse_formula(text)
    if kind == "bbll":
        sat.sat_bbll(phi)
    else:
        sat.sat_bounded_finite(phi, int(kind.split()[1]))
    return runs


@pytest.mark.parametrize("kind,text", CASES)
def test_candidate_cnfs_and_solver_runs(monkeypatch, kind, text):
    runs = _run_capturing(monkeypatch, kind, text)
    assert runs == [tuple(r) for r in EXPECTED[kind + " " + text]]
