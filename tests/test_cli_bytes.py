"""Byte-for-byte pins of the CLI's stdout in both output formats.

Each digest is the sha256 of what one command prints.  The digests were
recorded before the command pipeline was restructured to build partition
groups, factorizations and text once per command; any change to a single
printed byte fails here.
"""

import contextlib
import hashlib
import io

import pytest

from graphstates.cli import run

NAMED = ["k4minus1", "house", "bistar", "star:4", "cycle:5", "path:4", "complete:4", "empty:3"]

COMMANDS = (
    [["xchains", "--graph", g] for g in NAMED]
    + [["represent", "--graph", g] for g in NAMED]
    + [["bias", "--graph", g] for g in NAMED]
    + [
        ["overlap", "--graph", "cycle:3", "--graph2", "empty:3"],
        ["overlap", "--graph", "house", "--graph2", "bistar"],
        ["overlap", "--graph", "k4minus1", "--graph2", "star:4"],
        ["overlap", "--graph", "complete:5", "--graph2", "cycle:5"],
        ["schmidt", "--graph", "house", "--part-a", "1,2,3"],
        ["schmidt", "--graph", "bistar", "--part-a", "1,2,3"],
        ["schmidt", "--graph", "bistar", "--part-a", "4,5"],
        ["schmidt", "--graph", "cycle:6", "--part-a", "1,2,3"],
        ["schmidt", "--graph", "k4minus1", "--part-a", "1,3"],
        ["schmidt", "--graph", "path:4", "--part-a", "2"],
        ["localize", "--graph", "bistar", "--part-a", "1,2,3"],
        ["localize", "--graph", "bistar", "--part-a", "1,2,3", "--errors", "3", "--seed", "7"],
        ["localize", "--graph", "star:5", "--part-a", "2,3,4,5", "--errors", "2", "--seed", "3"],
        ["localize", "--graph", "path:5", "--part-a", "1,3,5", "--seed", "1"],
        ["balanced", "--max-n", "4"],
        ["balanced", "--max-n", "5"],
        ["verify", "--max-n", "6", "--samples", "3"],
    ]
)

DIGESTS = {
    ('xchains --graph k4minus1', 'text'): 'dddd153d679355ff32ca1a595a7c65ce81d04796134f36cabb6e22d0fe2ae3b5',
    ('xchains --graph k4minus1', 'json'): 'e5834fc22f256833e9ae371522d6bf7e4971a06c1426cb8237030ef69e54ec1d',
    ('xchains --graph house', 'text'): '20aa9321f4b5ca6c4e995110f8b3ec507f5b8a117ba1513e31c89e5337af576b',
    ('xchains --graph house', 'json'): '27bc46e8bfd2f70dfecac3225ce8cc8efcdfb0e354a85dab370008a08f15f512',
    ('xchains --graph bistar', 'text'): '37a90726826da5813a3d9936ef07b02a0f7dd37a533ff51b622accae3c7540a3',
    ('xchains --graph bistar', 'json'): '7aee0daf9269b1f1a6642529e4d5752956009b436be01a15b468572f5e095d24',
    ('xchains --graph star:4', 'text'): '5577c809b4bc8b4391e3c3d6e7b398115cde5ab88dbc087b7c4411337d0b7ae0',
    ('xchains --graph star:4', 'json'): '6407d58db1d86a26754fc17b03f229c86e8dad8e171f2e59ad3e32935b4052c3',
    ('xchains --graph cycle:5', 'text'): 'b9c8d13fcf8b013c41535f30d72a74231b8c30076cd49728b18a7a32b6b80bc1',
    ('xchains --graph cycle:5', 'json'): '50f08d6fcdb634de918951db6dddf08a9a6abd8fad40fc49299fbc69aeb2ef0e',
    ('xchains --graph path:4', 'text'): 'c149ba0f3519d45f19fdcbee8e01dd1d33accf00106ae0d89a131958072936c7',
    ('xchains --graph path:4', 'json'): '8b09708f76be0d5dcf341c1b01e6cdad53608ab6e76a1a9d20b08aee7d53adb5',
    ('xchains --graph complete:4', 'text'): '418c5863c823121e80df9ef34e7134972323876a9d3c8515c39c068134df88ec',
    ('xchains --graph complete:4', 'json'): 'd4e1956d17426fe682200241311560ba8bcb8f2201fb6c5aec429b81142f66fe',
    ('xchains --graph empty:3', 'text'): 'fba1317b40e494aa641edade6c7b8d2ae9e71e3dfcfebf6de82602932d13fab6',
    ('xchains --graph empty:3', 'json'): 'f5e1f8bddcf94a266a4ba1edb5358997d599d416f88ac2262d8caf9e8a82a37c',
    ('represent --graph k4minus1', 'text'): 'd23026ee6a47d62e9894641809b817105d935ea2ddf06b720a26f6f2d2dd47b3',
    ('represent --graph k4minus1', 'json'): '55dfff01f3fc8009566885aa4663dec38af7804988cdd9e4246f3df8b1cbf9bc',
    ('represent --graph house', 'text'): 'ba0ce31248b6fea0b15f46697eebba227c4a1395c6ae4d9f8f6377b01cbb340f',
    ('represent --graph house', 'json'): 'a36c2b8d5c5403b07a155960f224b32f93ce5f070a68bc7373c9e840839be876',
    ('represent --graph bistar', 'text'): '28b320e0296bf63843625f212f970a978975add47c899ddda47f1f8187e518a4',
    ('represent --graph bistar', 'json'): '844835907f8ffc742517c9ec2f7a1ed99caf08c05061e325d02fd6940e62a236',
    ('represent --graph star:4', 'text'): '632c435211cf896081e942ef1667bf9ff2d3724c500ce599f0de6d15ddb1ad59',
    ('represent --graph star:4', 'json'): '77d0d7dfa91070da7e35e589ec4c82351226c32108a3e4ed222101eaff1a627e',
    ('represent --graph cycle:5', 'text'): 'cf281a2fb152c18506f4bee45ccb2ef493d8245d147ed4952651e90197f2edcf',
    ('represent --graph cycle:5', 'json'): 'a1246ff8e1cbd665c6cc9852a8419492f854a93c6c72b63177015e1445f85adb',
    ('represent --graph path:4', 'text'): '0c8da538da50b91ad5fa32f50419dcae36069e95c85a419ed9c04eb55c9918fa',
    ('represent --graph path:4', 'json'): 'dd50c92711474fc19b2ada1c4ea5eb69444c35e37e14d9ebc16537ff9cfab18b',
    ('represent --graph complete:4', 'text'): '8b6c61eef0057063404310f40b1dcc8f6771bdd723c444febc281e90625d846d',
    ('represent --graph complete:4', 'json'): '319d1afe3acd08af78b792dcfe2ed9abc7b042eb22f0c97eeb88d93e267862c8',
    ('represent --graph empty:3', 'text'): '06d8e191ff106569d24197c211dd0b74bbd52f89b73b71c0971230f7083f4323',
    ('represent --graph empty:3', 'json'): '1c27fb7b46e4af4bbac1de48e5336e5f7f6e3d5fca311a4f483f6e96b98f82b4',
    ('bias --graph k4minus1', 'text'): '55217c295facaefb86799b493175569f0618c3a305fa2f93a25a8c3a6f00a850',
    ('bias --graph k4minus1', 'json'): 'd39483967f3dc5423c924d29a328e54c04194a7e98c3e6d8d4d70d13184760e2',
    ('bias --graph house', 'text'): '55217c295facaefb86799b493175569f0618c3a305fa2f93a25a8c3a6f00a850',
    ('bias --graph house', 'json'): 'e97c5b9cbb7052944a6a22c43d1593a21dcf2804a726de8d8c3a1a79b824d9ae',
    ('bias --graph bistar', 'text'): '378400997362eb8f0cf004a9c6abe1b7b128f5e058e955d0a0bcb0568b9463ab',
    ('bias --graph bistar', 'json'): '77f1b88a9292c55bea2d7085d54c8ea4ed20ab38f259dcb289e0adb05d565e67',
    ('bias --graph star:4', 'text'): '378400997362eb8f0cf004a9c6abe1b7b128f5e058e955d0a0bcb0568b9463ab',
    ('bias --graph star:4', 'json'): '0eac5a4065629248e63d6dbad3370241eaba5419735efc057cecc346dbe05c8a',
    ('bias --graph cycle:5', 'text'): '55217c295facaefb86799b493175569f0618c3a305fa2f93a25a8c3a6f00a850',
    ('bias --graph cycle:5', 'json'): '8827d08e37951377bb64961ca1ecc56d3fcf0ac436d9cc60c60270b534e79daa',
    ('bias --graph path:4', 'text'): '950f5a38ad9b74c590ac258b9d111398e3aa29999f27f29372b51c5bf1de8b1b',
    ('bias --graph path:4', 'json'): '25d780057deb562dd439e1b4d57d2ac892f438261c53126d313a76a55a33a8a0',
    ('bias --graph complete:4', 'text'): 'ccada4ff5dc3595b933d90f7ab1d010db8d1233a20484bafd1245fd2292b157b',
    ('bias --graph complete:4', 'json'): 'c77699a701d0933e220b1ec340481e63feeed744fadc777f7ed7ef0ea39eb1a0',
    ('bias --graph empty:3', 'text'): 'f19a837fc9fd05a57156a5e2a7b9a1dbcf961325c1496216bcf1d7444f111aec',
    ('bias --graph empty:3', 'json'): 'b841fb0e49a1a5817fe47cef0d5f422ac3e43393d381c968e5c3d7864f346ed6',
    ('overlap --graph cycle:3 --graph2 empty:3', 'text'): '5748099d64d04df046572d3a7dfeb0cda93d5411308a39969109776c4d79c118',
    ('overlap --graph cycle:3 --graph2 empty:3', 'json'): 'b369cdf5d2de7cd9f086a20dc334c7349921d625a31e827c1caa09ce44e4b462',
    ('overlap --graph house --graph2 bistar', 'text'): '56f17d69fb0bed662f7c994df0feb0933f1d65434b855db07b933f1e7a3122ef',
    ('overlap --graph house --graph2 bistar', 'json'): '7bbd0cb24ba59eec9e57d18927d261fff37436d0ba854de81765a767aab42610',
    ('overlap --graph k4minus1 --graph2 star:4', 'text'): '96b7ad51183a24832229ecf1de3e0bc72346793723682f02012fd5c0f8189eb5',
    ('overlap --graph k4minus1 --graph2 star:4', 'json'): 'e09fd5ec8da7ad098731d0f2c10fb28130ca17f9ec06b9f839574f4247599afc',
    ('overlap --graph complete:5 --graph2 cycle:5', 'text'): '5748099d64d04df046572d3a7dfeb0cda93d5411308a39969109776c4d79c118',
    ('overlap --graph complete:5 --graph2 cycle:5', 'json'): '3a6b9048b6ca62910681e55ce0e580480dcb96849e459131033ce17d5a795dab',
    ('schmidt --graph house --part-a 1,2,3', 'text'): '53977942a5d9c3c615eab8f98cc106cdfad121cfa3830161fb88a9025600b7c4',
    ('schmidt --graph house --part-a 1,2,3', 'json'): 'f95b276f0fdb1bba2baa60ef8be6bfa2f0f55f442fc29201b189683d06a5cece',
    ('schmidt --graph bistar --part-a 1,2,3', 'text'): '67c2a2050be5ec9a2add25d9d270a685168484a79325deb894bba14dedd188af',
    ('schmidt --graph bistar --part-a 1,2,3', 'json'): '67830ac2797ab0121965b939488b8217f89b20b9efc2ebce12e99ed32454e67b',
    ('schmidt --graph bistar --part-a 4,5', 'text'): '36455ddeaf899d345c3df56aa32a7ae8297669bd1fe33e7135762587c757a90d',
    ('schmidt --graph bistar --part-a 4,5', 'json'): '5ca713d147afc2ef5af814ae3d7e84c3fe088db8bcf257e240f6fc033abfc92f',
    ('schmidt --graph cycle:6 --part-a 1,2,3', 'text'): '3df19e87c9a4cbac2c3d2ba815fd2c1de85020730a6fd528b827ce956887700f',
    ('schmidt --graph cycle:6 --part-a 1,2,3', 'json'): '8c089fc916b57208979aef7b977fca1c415606f59e636cae76b986ecff085410',
    ('schmidt --graph k4minus1 --part-a 1,3', 'text'): 'c1c094b9986bce6d8df35bb3ced898c6526431df860324a806fc93533be8f45c',
    ('schmidt --graph k4minus1 --part-a 1,3', 'json'): '700700db0cdcf34ee50623e7ad00204e94324b007c8cc47a1dfd3a208b683959',
    ('schmidt --graph path:4 --part-a 2', 'text'): '66a7c97991e4a4a3d567b076d4a3785f66f446226a848ca9b8a76b7d1cfe4160',
    ('schmidt --graph path:4 --part-a 2', 'json'): 'f08c258a9b335d44d3e214453c58759c40593ac6b9357dfaf9c187dc1462f056',
    ('localize --graph bistar --part-a 1,2,3', 'text'): '8463c6c4917e3f6ab964ac37a3fd15fcfc50c482593b9808a2eb6c0b7db6e8b4',
    ('localize --graph bistar --part-a 1,2,3', 'json'): 'a419bced5e534675ed99357c5de6c6c73d430442d71ef732c7f4d10a22e055ae',
    ('localize --graph bistar --part-a 1,2,3 --errors 3 --seed 7', 'text'): '44323f9ee3632d4fd2cd33b778fe58739459479f8a78673cda88648853eb9fbf',
    ('localize --graph bistar --part-a 1,2,3 --errors 3 --seed 7', 'json'): '85d264df819ffba59ce12b385c9ef5b51291b696e718c034f2632ea1b844c71a',
    ('localize --graph star:5 --part-a 2,3,4,5 --errors 2 --seed 3', 'text'): 'c50cda8249b3788b72d18f1ba0455bf0ddba2ab309d2519586816e51e9c079ba',
    ('localize --graph star:5 --part-a 2,3,4,5 --errors 2 --seed 3', 'json'): 'd7ba25f3adc1b973c6f5219a075e6fb1fe343b2899bc97e0e3f91e23b8cd49b9',
    ('localize --graph path:5 --part-a 1,3,5 --seed 1', 'text'): 'a7886e9b3a4e7582a2d9be09787d71ee463ef2775e3030cc16c9ed829f71ac4e',
    ('localize --graph path:5 --part-a 1,3,5 --seed 1', 'json'): 'bb7dc496338a68abc0c6fb3bcc86319a8ce411d200f8a4304e352f31b2f1bff3',
    ('balanced --max-n 4', 'text'): '940e08c95b9cb9bb7c4bcbf727045b278748cdbe540abad4704dc749e6131680',
    ('balanced --max-n 4', 'json'): '3eee3390c04532ad6b7da0032d0ea3bfd09cef3b05dcca196c9d854dd2099b46',
    ('balanced --max-n 5', 'text'): 'be6340f71153691c228aef7461dd54a48e47aa0ec359b7f278c53703a2084acb',
    ('balanced --max-n 5', 'json'): '15707eef516d2806994776f4d37542700a4983b2dead8be30d95d30b9803567f',
    ('verify --max-n 6 --samples 3', 'text'): '760f07b82b9a572c325b9e38889c77895fa065af6fa2703525280f9060dd17bb',
    ('verify --max-n 6 --samples 3', 'json'): '7bf9e95207282da484c47d9f53ca3407d7bd2aadca9331eb9d8305328fe7e722',
}


def _stdout_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_bytes_pinned(argv, fmt):
    assert _stdout_digest(argv + ["--format", fmt]) == (0, DIGESTS[" ".join(argv), fmt])
