"""Character-trigram language identification over a small built-in profile set.

Each language profile is a bag of letter trigrams taken from a bundled seed
paragraph, with word-boundary padding (`` word `` before trigram extraction).
Because trigrams never cross token boundaries, the extracted bag -- and
therefore the label -- is invariant under any reordering of the words or
sentences of the input.

Scoring is add-one-smoothed log-likelihood per profile; the reported
confidence is the softmax posterior of the best profile, damped by an
evidence factor ``min(1, len(text)/80)`` so that texts under 40 characters
can never exceed confidence 0.5: two words prove very little.

Words are split off in C too: ``str.translate`` with ``_WORD_CHARS`` maps
every character that is not a word character to a space, and ``split``
cuts the rest into the same words ``_WORD_RE.findall`` finds. The table
learns a code point from ``_WORD_RE`` the first time it sees it, and is
emptied when full (2**14 code points), so no text can grow it without
bound.

Both per-trigram loops run in C. A word's trigrams are sliced once and kept
in a bounded cache (``_word_trigrams``, 2**14 words, about 8 MiB when
full), and the bag is counted from the chained tuples, so it holds the same
counts in the same key order as slicing every word occurrence would. Each
distinct trigram is then looked up once in ``_JOINT``, which maps it to its
log-probability under every language (the unseen value filled in), and each
language's score is ``sum(map(mul, counts, column))``. That sum sees the
products ``count * log_p`` of the per-trigram formula in the bag's order, so
the scores equal it bit for bit, under 3.12's compensated ``sum`` as well.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# Seed paragraphs: plain, domain-neutral prose written for this profile set.
_SEEDS = {
    "en": (
        "The committee agreed that the report should be published before the "
        "end of the year. Many people believe that protecting rivers and "
        "forests is a shared responsibility, and that governments should "
        "listen carefully to local communities. When the weather changes "
        "quickly, farmers have to adapt their plans for planting and "
        "harvesting. She walked through the old town, looking at the small "
        "shops and wondering how long they had been there. There is growing "
        "evidence that simple measures, such as better insulation and cleaner "
        "transport, can reduce emissions while improving everyday life. The "
        "children asked whether the story was true, and the teacher smiled "
        "before answering. Our neighbours have lived beside the harbour for "
        "thirty years and they still watch the boats every morning. If you "
        "want to learn more about the project, please visit the library and "
        "ask for the yearly review. Scientists measured the temperature of "
        "the lake during every season and compared the results with older "
        "records. Nothing in the garden had changed, except that the apple "
        "tree was taller and the fence needed painting."
    ),
    "nl": (
        "De commissie was het erover eens dat het rapport voor het einde van "
        "het jaar gepubliceerd moest worden. Veel mensen geloven dat de "
        "bescherming van rivieren en bossen een gedeelde verantwoordelijkheid "
        "is, en dat de overheid goed naar plaatselijke gemeenschappen moet "
        "luisteren. Wanneer het weer snel verandert, moeten boeren hun "
        "plannen voor zaaien en oogsten aanpassen. Zij liep door de oude "
        "binnenstad, keek naar de kleine winkels en vroeg zich af hoe lang ze "
        "daar al stonden. Er zijn steeds meer aanwijzingen dat eenvoudige "
        "maatregelen, zoals betere isolatie en schoner vervoer, de uitstoot "
        "kunnen verminderen en het dagelijks leven verbeteren. De kinderen "
        "vroegen of het verhaal echt gebeurd was, en de juf glimlachte "
        "voordat ze antwoord gaf. Onze buren wonen al dertig jaar naast de "
        "haven en kijken nog elke ochtend naar de boten. Als je meer over het "
        "project wilt weten, ga dan naar de bibliotheek en vraag naar het "
        "jaarverslag. Wetenschappers maten de temperatuur van het meer in elk "
        "seizoen en vergeleken de uitkomsten met oudere metingen."
    ),
    "de": (
        "Der Ausschuss war sich einig, dass der Bericht vor dem Ende des "
        "Jahres veröffentlicht werden sollte. Viele Menschen glauben, dass "
        "der Schutz von Flüssen und Wäldern eine gemeinsame Verantwortung ist "
        "und dass die Regierung den örtlichen Gemeinden genau zuhören sollte. "
        "Wenn sich das Wetter schnell ändert, müssen die Bauern ihre Pläne "
        "für Aussaat und Ernte anpassen. Sie ging durch die Altstadt, "
        "betrachtete die kleinen Läden und fragte sich, wie lange es sie "
        "schon gab. Es gibt immer mehr Hinweise darauf, dass einfache "
        "Maßnahmen wie bessere Dämmung und sauberer Verkehr die Emissionen "
        "senken und zugleich das tägliche Leben verbessern können. Die Kinder "
        "fragten, ob die Geschichte wahr sei, und die Lehrerin lächelte, "
        "bevor sie antwortete. Unsere Nachbarn wohnen seit dreißig Jahren am "
        "Hafen und beobachten noch jeden Morgen die Schiffe."
    ),
    "fr": (
        "Le comité a convenu que le rapport devait être publié avant la fin "
        "de l'année. Beaucoup de gens pensent que la protection des rivières "
        "et des forêts est une responsabilité partagée, et que le "
        "gouvernement doit écouter attentivement les communautés locales. "
        "Quand le temps change rapidement, les agriculteurs doivent adapter "
        "leurs plans de semis et de récolte. Elle marchait dans la vieille "
        "ville, regardant les petites boutiques et se demandant depuis "
        "combien de temps elles étaient là. Il existe de plus en plus de "
        "preuves que des mesures simples, comme une meilleure isolation et "
        "des transports plus propres, peuvent réduire les émissions tout en "
        "améliorant la vie quotidienne. Les enfants ont demandé si l'histoire "
        "était vraie, et la maîtresse a souri avant de répondre. Nos voisins "
        "habitent près du port depuis trente ans et regardent encore les "
        "bateaux chaque matin."
    ),
    "es": (
        "El comité acordó que el informe debía publicarse antes de fin de "
        "año. Mucha gente cree que la protección de los ríos y los bosques "
        "es una responsabilidad compartida, y que el gobierno debe escuchar "
        "con atención a las comunidades locales. Cuando el tiempo cambia "
        "rápidamente, los agricultores tienen que adaptar sus planes de "
        "siembra y cosecha. Ella caminaba por el casco antiguo, mirando las "
        "pequeñas tiendas y preguntándose cuánto tiempo llevaban allí. Cada "
        "vez hay más pruebas de que medidas sencillas, como un mejor "
        "aislamiento y un transporte más limpio, pueden reducir las "
        "emisiones y mejorar la vida cotidiana. Los niños preguntaron si la "
        "historia era verdadera, y la maestra sonrió antes de responder. "
        "Nuestros vecinos viven junto al puerto desde hace treinta años y "
        "todavía miran los barcos cada mañana."
    ),
}

LANGUAGES = tuple(_SEEDS)


_CACHE_SIZE = 1 << 14


class _WordChars(dict):
    """``str.translate`` table: a code point to itself when ``_WORD_RE``
    counts it as a word character, else to a space. Filled the first time
    each code point is seen, and emptied when it holds _CACHE_SIZE."""

    def __missing__(self, code: int) -> int:
        if len(self) >= _CACHE_SIZE:
            self.clear()
        value = self[code] = code if _WORD_RE.match(chr(code)) else 32
        return value


_WORD_CHARS = _WordChars()


@lru_cache(maxsize=_CACHE_SIZE)
def _word_trigrams(word: str) -> tuple[str, ...]:
    padded = f" {word} "
    return tuple(padded[i : i + 3] for i in range(len(padded) - 2))


def _trigram_bag(text: str) -> Counter:
    words = text.lower().translate(_WORD_CHARS).split()
    return Counter(chain.from_iterable(map(_word_trigrams, words)))


def _log_table(seed: str) -> tuple[dict[str, float], float]:
    """Add-one-smoothed log-probability of each profile trigram, and of an
    unseen one."""
    profile = _trigram_bag(seed)
    denom = sum(profile.values()) + len(profile) + 1
    return {g: math.log((n + 1) / denom) for g, n in profile.items()}, math.log(1 / denom)


_TABLES = {lang: _log_table(seed) for lang, seed in _SEEDS.items()}

# trigram -> its log-probability under each language, in LANGUAGES order
_UNSEEN = tuple(_TABLES[lang][1] for lang in LANGUAGES)
_JOINT = {
    g: tuple(table.get(g, unseen) for table, unseen in map(_TABLES.get, LANGUAGES))
    for g in set().union(*(table for table, _ in _TABLES.values()))
}


def detect_language(text: str) -> tuple[str, float]:
    """Best-matching language code and a confidence fraction in [0, 1]."""
    if not text:
        raise ValueError("detect_language requires non-empty text")
    bag = _trigram_bag(text)
    if not bag:
        return "en", 0.0
    counts = bag.values()
    columns = zip(*map(_JOINT.get, bag, repeat(_UNSEEN)))
    scores = {lang: sum(map(mul, counts, column)) for lang, column in zip(LANGUAGES, columns)}
    best = max(scores, key=lambda lang: (scores[lang], lang))
    top = scores[best]
    posterior = 1.0 / sum(math.exp(s - top) for s in scores.values())
    evidence = min(1.0, len(text.strip()) / 80.0)
    return best, posterior * evidence
